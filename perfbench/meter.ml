(* Clocks, counters and the summary statistics every workload reports.

   Host cost is process CPU time (user + system over every thread of the
   process), which hypervisor steal does not inflate. *)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type gc = { minor_gcs : int; major_gcs : int }

let gc () =
  let s = Gc.quick_stat () in
  { minor_gcs = s.Gc.minor_collections; major_gcs = s.Gc.major_collections }

(* VmHWM: the resident-set high-water mark, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The value with exactly [beyond] samples above it: the highest
   percentile that still has that many samples past it.  The sample
   maximum when there are too few. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(if n > beyond then n - 1 - beyond else n - 1)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum = List.fold_left ( +. ) 0.

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* A non-allocating digest of a memory image, so references for many
   8 MB images fit in a few words each. *)
let hash_ints (a : int array) =
  let h = ref (Array.length a) in
  for i = 0 to Array.length a - 1 do
    h := (!h * 0x100000001b3) lxor (Array.unsafe_get a i + i)
  done;
  !h

(* Host speed calibration.  On a shared VM the CPU time of fixed work
   swings by up to 2x within minutes (frequency and sibling-thread
   contention), far beyond any useful bound.  A fixed, benchmark-owned
   kernel of integer, array, hashing and small-allocation work is timed
   between ops; the run's CPU-time metrics are scaled by
   [reference_chunk_s] / (its mean CPU time), i.e. reported at the speed
   the host had when the reference was taken.  The kernel shares no code
   with the simulator and allocates little, so a change to the program
   cannot move it. *)

let reference_chunk_s = 0.02

let chunk_table = Hashtbl.create 256
let chunk_array = Array.make 8192 0

let kernel () =
  let a = chunk_array in
  let acc = ref 0 in
  for k = 1 to 1_500_000 do
    let i = (k * 2654435761) land 8191 in
    let v = a.(i) + k in
    a.(i) <- (if v land 1 = 0 then v lsr 1 else (3 * v) + 1) land 0xFFFFFF;
    if k land 15 = 0 then Hashtbl.replace chunk_table (k land 255) (k, v);
    if k land 63 = 0 then acc := !acc + List.length [ v; k; i ]
  done;
  !acc

let chunks = ref []

let calibrate () =
  let c0 = cpu () in
  ignore (Sys.opaque_identity (kernel ()) : int);
  chunks := (cpu () -. c0) :: !chunks

(* Measured speed relative to the reference: > 1 when the host runs
   slower than when the reference was taken. *)
let slowdown () = mean !chunks /. reference_chunk_s
