(* Bounded rings + post-mortem dump.  See flight.mli. *)

type 'a ring = {
  buf : 'a option array;
  mutable pushed : int;  (* total ever pushed; buf.(pushed mod cap) is next *)
}

let ring_create cap = { buf = Array.make (max 1 cap) None; pushed = 0 }

let ring_push r x =
  r.buf.(r.pushed mod Array.length r.buf) <- Some x;
  r.pushed <- r.pushed + 1

let ring_count r = min r.pushed (Array.length r.buf)

let ring_to_list r =
  (* oldest first *)
  let cap = Array.length r.buf in
  let n = ring_count r in
  List.init n (fun i -> Option.get r.buf.((r.pushed - n + i) mod cap))

type t = {
  mu : Mutex.t;
  samples : Tsdb.sample ring;
  records : Json.t ring;
}

let create ?(samples = 256) ?(records = 256) () =
  { mu = Mutex.create (); samples = ring_create samples; records = ring_create records }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let add_sample t s = locked t (fun () -> ring_push t.samples s)
let add_record t j = locked t (fun () -> ring_push t.records j)
let sample_count t = locked t (fun () -> ring_count t.samples)

let dump t ~reason ~ts =
  locked t (fun () ->
      Schema.tag
        [
          ("kind", Json.String "levioso-postmortem");
          ("reason", Json.String reason);
          ("ts", Json.float ts);
          ( "samples",
            Json.List (List.map Tsdb.sample_to_json (ring_to_list t.samples))
          );
          ("records", Json.List (ring_to_list t.records));
        ])

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write t ~dir ~reason ~ts =
  let json = dump t ~reason ~ts in
  mkdir_p dir;
  let rec free_path n =
    if n > 999 then None
    else
      let path = Filename.concat dir (Printf.sprintf "postmortem-%03d.json" n) in
      if Sys.file_exists path then free_path (n + 1) else Some path
  in
  match free_path 0 with
  | None -> Error "flight recorder: no free postmortem-NNN.json slot"
  | Some path -> (
      try
        Atomic_file.write path (fun oc ->
            Json.to_channel oc json;
            output_char oc '\n');
        Ok path
      with Sys_error e -> Error e)
