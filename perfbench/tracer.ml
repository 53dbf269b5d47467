(* Spans around the public calls the benchmark makes, on the repo's own
   Span collector with a process-CPU clock.  Off, [span] is a direct
   call and reads no clock. *)

module Span = Levioso_telemetry.Span

type on = { col : Span.t; trace : string; mutable parent : int }
type t = on option

let off : t = None

let create trace : t =
  Some { col = Span.create ~clock:Meter.cpu (); trace; parent = -1 }

let span (t : t) ?(attrs = []) name f =
  match t with
  | None -> f ()
  | Some s ->
    let sp = Span.start s.col ~trace:s.trace ~parent:s.parent name in
    let saved = s.parent in
    s.parent <- Span.id sp;
    Fun.protect
      ~finally:(fun () ->
        s.parent <- saved;
        Span.finish s.col ~attrs sp)
      f

let drain (t : t) = match t with None -> [] | Some s -> Span.drain s.col

(* Self time of every span: its duration minus what its children cover
   (children of one span never overlap: the benchmark is serial). *)
let self_times (spans : Span.finished list) =
  let child = Hashtbl.create 64 in
  List.iter
    (fun (f : Span.finished) ->
      if f.Span.parent >= 0 then
        Hashtbl.replace child f.Span.parent
          (Span.duration f
          +. Option.value ~default:0. (Hashtbl.find_opt child f.Span.parent)))
    spans;
  List.map
    (fun (f : Span.finished) ->
      let covered = Option.value ~default:0. (Hashtbl.find_opt child f.Span.id) in
      (f, Float.max 0. (Span.duration f -. covered)))
    spans

(* Summed self time and count of the spans named [name] whose attributes
   include every [where] pair. *)
let total ?(where = []) selfs name =
  List.fold_left
    (fun (s, n) ((f : Span.finished), self) ->
      if
        f.Span.name = name
        && List.for_all (fun kv -> List.mem kv f.Span.attrs) where
      then (s +. self, n + 1)
      else (s, n))
    (0., 0) selfs

let mean_self ?where selfs name =
  let s, n = total ?where selfs name in
  if n = 0 then nan else s /. float_of_int n
