(* The temp name is unique per process and call, so concurrent writers
   of one path (domains, or processes sharing a store) never write into
   each other's temp file; the [.tmp] suffix is what [Run_cache.prune]
   sweeps as debris from killed writers. *)
let counter = Atomic.make 0

let write path f =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add counter 1)
  in
  let oc = open_out_bin tmp in
  (match f oc with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path
