type t = {
  rob : int;
  words : int;  (* words per row *)
  budget : int;
  bits : int array;  (* rob + 1 rows of [words] words; row [rob] is scratch *)
  saturated : bool array;
}

let bits_per_word = Sys.int_size - 1

let create (config : Config.t) =
  let rob = config.Config.rob_size and budget = config.Config.depset_budget in
  let words = (rob + bits_per_word - 1) / bits_per_word in
  let bits = Array.make ((rob + 1) * words) 0 in
  { rob; words; budget; bits; saturated = Array.make (rob + 1) false }

let slot m seq = seq mod m.rob
let scratch m = m.rob

let clear m r =
  Array.fill m.bits (r * m.words) m.words 0;
  m.saturated.(r) <- false

let add m r ~col =
  let i = (r * m.words) + (col / bits_per_word) in
  m.bits.(i) <- m.bits.(i) lor (1 lsl (col mod bits_per_word))

let mem m r ~col =
  m.bits.((r * m.words) + (col / bits_per_word))
  land (1 lsl (col mod bits_per_word))
  <> 0

let union_into m ~dst ~src =
  let d = dst * m.words and s = src * m.words in
  for w = 0 to m.words - 1 do
    m.bits.(d + w) <- m.bits.(d + w) lor m.bits.(s + w)
  done;
  if m.saturated.(src) then m.saturated.(dst) <- true

(* Loops below are closure-free: these run on every decode and issue poll. *)
let rec or_rows m oldest dst = function
  | [] -> ()
  | p :: ps ->
    if p >= oldest then union_into m ~dst ~src:(slot m p);
    or_rows m oldest dst ps

let inherit_producers m pipe ~dst ~seq =
  or_rows m (Pipeline.oldest_seq pipe) dst (Pipeline.producers_of pipe seq)

let rec popcount x n = if x = 0 then n else popcount (x land (x - 1)) (n + 1)

let seal m r =
  let n = ref 0 in
  for i = r * m.words to ((r + 1) * m.words) - 1 do
    n := popcount m.bits.(i) !n
  done;
  if !n > m.budget then m.saturated.(r) <- true

let broadcast m ~col =
  let keep = lnot (1 lsl (col mod bits_per_word)) in
  let i = ref (col / bits_per_word) in
  for _ = 0 to m.rob do
    m.bits.(!i) <- m.bits.(!i) land keep;
    i := !i + m.words
  done

let filter m r keep =
  for w = 0 to m.words - 1 do
    let i = (r * m.words) + w in
    let x = ref m.bits.(i) and bit = ref 0 in
    while !x <> 0 do
      if !x land 1 <> 0 && not (keep ((w * bits_per_word) + !bit)) then
        m.bits.(i) <- m.bits.(i) land lnot (1 lsl !bit);
      x := !x lsr 1;
      incr bit
    done
  done

let retain_in_flight m pipe r =
  let oldest = Pipeline.oldest_seq pipe in
  let live = Pipeline.next_seq pipe - oldest in
  let first = slot m oldest in
  filter m r (fun col -> (col - first + m.rob) mod m.rob < live)

let may_issue m pipe r ~seq =
  if m.saturated.(r) then
    not (Pipeline.exists_older_unresolved_branch pipe ~seq)
  else begin
    let i = ref (r * m.words) and last = (r + 1) * m.words in
    while !i < last && m.bits.(!i) = 0 do
      incr i
    done;
    !i = last
  end

let explain m pipe r members =
  if m.saturated.(r) then Levioso_telemetry.Audit.Overflow
  else begin
    let acc = ref [] in
    for s = Pipeline.next_seq pipe - 1 downto Pipeline.oldest_seq pipe do
      if mem m r ~col:(slot m s) then acc := (s, Pipeline.pc_of pipe s) :: !acc
    done;
    members !acc
  end
