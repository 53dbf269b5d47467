type span = {
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
}

let zero =
  {
    wall_s = 0.;
    minor_words = 0.;
    promoted_words = 0.;
    major_words = 0.;
    minor_collections = 0;
    major_collections = 0;
    top_heap_words = 0;
  }

let measure f =
  let g0 = Gc.quick_stat () in
  (* quick_stat's minor_words only refreshes at collection points on
     OCaml 5; Gc.minor_words reads the live allocation pointer, so short
     spans still see their allocation; its promoted and major words are
     process-wide on 5.1, so those come from the domain-local counters *)
  let _, p0, j0 = Gc.counters () in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  let m1 = Gc.minor_words () in
  let _, p1, j1 = Gc.counters () in
  let g1 = Gc.quick_stat () in
  ( x,
    {
      wall_s = t1 -. t0;
      minor_words = m1 -. m0;
      promoted_words = p1 -. p0;
      major_words = j1 -. j0;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      top_heap_words = g1.Gc.top_heap_words;
    } )

let add a b =
  {
    wall_s = a.wall_s +. b.wall_s;
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    major_words = a.major_words +. b.major_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
    top_heap_words = max a.top_heap_words b.top_heap_words;
  }

let alloc_mwords s =
  (s.minor_words +. s.major_words -. s.promoted_words) /. 1e6

let to_json s =
  Json.Obj
    [
      ("wall_s", Json.float s.wall_s);
      ("minor_words", Json.float s.minor_words);
      ("promoted_words", Json.float s.promoted_words);
      ("major_words", Json.float s.major_words);
      ("minor_collections", Json.Int s.minor_collections);
      ("major_collections", Json.Int s.major_collections);
      ("top_heap_words", Json.Int s.top_heap_words);
    ]

let phases_to_json phases =
  let total = List.fold_left (fun acc (_, s) -> add acc s) zero phases in
  Json.Obj
    [
      ("phases", Json.Obj (List.map (fun (n, s) -> (n, to_json s)) phases));
      ("total", to_json total);
    ]
