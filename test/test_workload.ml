(* Workload generators: Zipf distribution statistics, YCSB-T shape,
   the Retwis mix (Table 2). *)

module Rng = Mk_util.Rng
module Zipf = Mk_workload.Zipf
module Workload = Mk_workload.Workload
module Intf = Mk_model.System_intf

let test_zipf_uniform () =
  let rng = Rng.create ~seed:1 in
  let z = Zipf.create ~rng ~n:100 ~theta:0.0 () in
  let counts = Array.make 100 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let k = Zipf.sample z in
    counts.(k) <- counts.(k) + 1
  done;
  (* Every key drawn, roughly evenly: chi-square-ish slack of ±40%. *)
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d near uniform" i)
        true
        (c > 600 && c < 1400))
    counts

let test_zipf_in_range () =
  let rng = Rng.create ~seed:2 in
  List.iter
    (fun theta ->
      let z = Zipf.create ~rng ~n:977 ~theta () in
      for _ = 1 to 10_000 do
        let k = Zipf.sample z in
        Alcotest.(check bool) "in range" true (k >= 0 && k < 977)
      done)
    [ 0.0; 0.5; 0.9; 0.99 ]

let test_zipf_skew_increases_with_theta () =
  let hottest_fraction theta =
    let rng = Rng.create ~seed:3 in
    let z = Zipf.create ~scramble:false ~rng ~n:1000 ~theta () in
    let hot = ref 0 in
    let draws = 50_000 in
    for _ = 1 to draws do
      if Zipf.sample z = 0 then incr hot
    done;
    float_of_int !hot /. float_of_int draws
  in
  let f0 = hottest_fraction 0.0 in
  let f6 = hottest_fraction 0.6 in
  let f9 = hottest_fraction 0.9 in
  Alcotest.(check bool) "0 < 0.6" true (f0 < f6);
  Alcotest.(check bool) "0.6 < 0.9" true (f6 < f9);
  Alcotest.(check bool) "0.9 is heavily skewed" true (f9 > 0.05)

let test_zipf_matches_analytic_probability () =
  let rng = Rng.create ~seed:4 in
  let z = Zipf.create ~scramble:false ~rng ~n:50 ~theta:0.8 () in
  let draws = 200_000 in
  let counts = Array.make 50 0 in
  for _ = 1 to draws do
    let k = Zipf.sample z in
    counts.(k) <- counts.(k) + 1
  done;
  (* Compare empirical vs analytic for the top 5 ranks (loose 15%). *)
  for rank = 0 to 4 do
    let expected = Zipf.probability z ~rank in
    let got = float_of_int counts.(rank) /. float_of_int draws in
    Alcotest.(check bool)
      (Printf.sprintf "rank %d" rank)
      true
      (abs_float (got -. expected) /. expected < 0.15)
  done;
  (* Analytic probabilities sum to ~1. *)
  let sum = ref 0.0 in
  for rank = 0 to 49 do
    sum := !sum +. Zipf.probability z ~rank
  done;
  Alcotest.(check bool) "probabilities sum to 1" true (abs_float (!sum -. 1.0) < 1e-9)

let test_zipf_scramble_is_bijective () =
  (* With full skew removed (theta=0) the scrambled sampler must still
     cover the whole keyspace. *)
  let rng = Rng.create ~seed:5 in
  let n = 257 in
  let z = Zipf.create ~rng ~n ~theta:0.0 () in
  let seen = Array.make n false in
  for _ = 1 to 40_000 do
    seen.(Zipf.sample z) <- true
  done;
  Alcotest.(check bool) "all keys reachable" true (Array.for_all (fun b -> b) seen)

let test_zipf_validation () =
  let rng = Rng.create ~seed:6 in
  Alcotest.check_raises "n = 0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~rng ~n:0 ~theta:0.0 ()));
  Alcotest.check_raises "theta = 1" (Invalid_argument "Zipf.create: theta must be in [0,1)")
    (fun () -> ignore (Zipf.create ~rng ~n:10 ~theta:1.0 ()));
  (* Degenerate keyspace still works. *)
  let z1 = Zipf.create ~rng ~n:1 ~theta:0.5 () in
  Alcotest.(check int) "n=1 samples 0" 0 (Zipf.sample z1)

(* --- YCSB-T --- *)

let test_ycsb_t_shape () =
  let wl = Workload.ycsb_t ~rng:(Rng.create ~seed:7) ~keys:1024 ~theta:0.0 in
  Alcotest.(check string) "name" "YCSB-T" (Workload.name wl);
  for _ = 1 to 500 do
    let req = Workload.next wl in
    Alcotest.(check int) "one read" 1 (Array.length req.Intf.reads);
    Alcotest.(check int) "one write" 1 (Array.length req.Intf.writes);
    let wkey, _ = req.Intf.writes.(0) in
    Alcotest.(check int) "read-modify-write same key" req.Intf.reads.(0) wkey
  done

let test_ycsb_t_values_unique () =
  let wl = Workload.ycsb_t ~rng:(Rng.create ~seed:8) ~keys:64 ~theta:0.0 in
  let values = Hashtbl.create 64 in
  for _ = 1 to 200 do
    let req = Workload.next wl in
    let _, v = req.Intf.writes.(0) in
    Alcotest.(check bool) "value fresh" false (Hashtbl.mem values v);
    Hashtbl.add values v ()
  done

(* --- Retwis (Table 2) --- *)

let test_retwis_mix_matches_table2 () =
  let wl = Workload.retwis ~rng:(Rng.create ~seed:9) ~keys:4096 ~theta:0.0 in
  let n = 40_000 in
  for _ = 1 to n do
    ignore (Workload.next wl)
  done;
  let mix = Workload.mix_report wl in
  let fraction label =
    match List.assoc_opt label mix with
    | Some c -> float_of_int c /. float_of_int n
    | None -> Alcotest.failf "missing shape %s" label
  in
  let near label expected =
    let got = fraction label in
    Alcotest.(check bool)
      (Printf.sprintf "%s ~ %.0f%%" label (100.0 *. expected))
      true
      (abs_float (got -. expected) < 0.02)
  in
  near "Add User" 0.05;
  near "Follow/Unfollow" 0.15;
  near "Post Tweet" 0.30;
  near "Load Timeline" 0.50

let test_retwis_shapes () =
  let wl = Workload.retwis ~rng:(Rng.create ~seed:10) ~keys:4096 ~theta:0.0 in
  let avg_gets = ref 0.0 and avg_puts = ref 0.0 in
  let n = 20_000 in
  for _ = 1 to n do
    let req = Workload.next wl in
    let gets = Array.length req.Intf.reads and puts = Array.length req.Intf.writes in
    avg_gets := !avg_gets +. float_of_int gets;
    avg_puts := !avg_puts +. float_of_int puts;
    (* Table 2 bounds: gets in [1,10], puts in {0,2,3,5}. *)
    Alcotest.(check bool) "gets bounded" true (gets >= 1 && gets <= 10);
    Alcotest.(check bool) "puts valid" true (List.mem puts [ 0; 2; 3; 5 ]);
    (* Keys within a transaction are distinct. *)
    let all =
      Array.to_list req.Intf.reads @ List.map fst (Array.to_list req.Intf.writes)
    in
    Alcotest.(check int) "distinct keys" (List.length all)
      (List.length (List.sort_uniq compare all))
  done;
  (* Expected means: gets = .05*1+.15*2+.30*3+.50*5.5 = 4.0;
     puts = .05*3+.15*2+.30*5 = 1.95. *)
  let mean_gets = !avg_gets /. float_of_int n in
  let mean_puts = !avg_puts /. float_of_int n in
  Alcotest.(check bool) "mean gets ~4.0" true (abs_float (mean_gets -. 4.0) < 0.15);
  Alcotest.(check bool) "mean puts ~1.95" true (abs_float (mean_puts -. 1.95) < 0.1)

(* --- test workloads --- *)

(* The draw order, pinned: the first requests of seeded streams as
   the generator has always produced them. The sim goldens and the
   shard sweep rest on these exact streams, so a rewrite of the draw
   loops must leave them bit-identical. *)
let test_pinned_streams () =
  let check wl expected =
    List.iteri
      (fun i (reads, writes) ->
        let req = Workload.next wl in
        let name = Printf.sprintf "%s request %d" (Workload.name wl) i in
        Alcotest.(check (array int)) (name ^ " reads") reads req.Intf.reads;
        Alcotest.(check (array (pair int int))) (name ^ " writes") writes req.Intf.writes)
      expected
  in
  check
    (Workload.retwis ~rng:(Rng.create ~seed:5) ~keys:1024 ~theta:0.6)
    [
      ([| 795; 887; 640 |], [| (927, 1); (213, 2); (499, 3); (808, 4); (352, 5) |]);
      ([| 540; 986; 259 |], [| (84, 6); (200, 7); (601, 8); (458, 9); (733, 10) |]);
      ([| 308; 464; 984 |], [| (242, 11); (414, 12); (50, 13); (564, 14); (372, 15) |]);
      ([| 219; 63 |], [| (849, 16); (408, 17) |]);
      ([| 591; 69; 929; 273; 390; 181 |], [||]);
    ];
  let pair = Workload.rmw_pair ~rng:(Rng.create ~seed:5) ~keys:64 ~theta:0.9 in
  Workload.set_locality pair (Some { Workload.shards = 4; cross = 0.5 });
  check pair
    [
      ([| 45; 33 |], [| (45, 1); (33, 2) |]);
      ([| 15; 19 |], [| (15, 3); (19, 4) |]);
      ([| 53; 26 |], [| (53, 5); (26, 6) |]);
      ([| 51; 31 |], [| (51, 7); (31, 8) |]);
    ]

(* [next] runs once per transaction on every client: it may allocate
   the request's own arrays, tuples and the boxed uniform draws, and
   nothing per draw beyond that (measured 37 words per Retwis
   request; a closure per draw adds ~24, and a boxing RNG put it
   near 270). *)
let test_retwis_next_alloc_budget () =
  let wl = Workload.retwis ~rng:(Rng.create ~seed:9) ~keys:1024 ~theta:0.6 in
  for _ = 1 to 100 do
    ignore (Workload.next wl : Intf.txn_request)
  done;
  let runs = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Workload.next wl : Intf.txn_request)
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int runs in
  if words > 48.0 then
    Alcotest.failf "Retwis next: %.1f words per request (budget 48)" words

let test_read_only_and_write_only () =
  let ro = Workload.read_only ~rng:(Rng.create ~seed:11) ~keys:128 ~theta:0.0 ~nreads:3 in
  let req = Workload.next ro in
  Alcotest.(check int) "ro reads" 3 (Array.length req.Intf.reads);
  Alcotest.(check int) "ro writes" 0 (Array.length req.Intf.writes);
  let wo =
    Workload.write_only ~rng:(Rng.create ~seed:12) ~keys:128 ~theta:0.0 ~nwrites:2
  in
  let req = Workload.next wo in
  Alcotest.(check int) "wo reads" 0 (Array.length req.Intf.reads);
  Alcotest.(check int) "wo writes" 2 (Array.length req.Intf.writes)

(* --- Locality knob (DESIGN.md §13): the measured spanning ratio of a
   generated stream tracks the requested cross fraction, seed by seed,
   under the Mod placement the knob assumes. --- *)

let spanning_ratio ~shards ~cross ~seed n =
  let wl = Workload.rmw_pair ~rng:(Rng.create ~seed) ~keys:1024 ~theta:0.0 in
  Workload.set_locality wl (Some { Workload.shards; cross });
  let spans = ref 0 in
  for _ = 1 to n do
    if Workload.spans ~shards (Workload.next wl) then incr spans
  done;
  float_of_int !spans /. float_of_int n

let test_locality_cross_extremes () =
  List.iter
    (fun seed ->
      List.iter
        (fun shards ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "seed %d, %d shards: cross 0 never spans" seed
               shards)
            0.0
            (spanning_ratio ~shards ~cross:0.0 ~seed 2000);
          Alcotest.(check (float 0.0))
            (Printf.sprintf "seed %d, %d shards: cross 1 always spans" seed
               shards)
            1.0
            (spanning_ratio ~shards ~cross:1.0 ~seed 2000))
        [ 2; 4 ])
    [ 1; 2; 3; 4; 5 ]

let test_locality_tracks_cross () =
  List.iter
    (fun seed ->
      List.iter
        (fun cross ->
          let ratio = spanning_ratio ~shards:4 ~cross ~seed 5000 in
          if Float.abs (ratio -. cross) > 0.02 then
            Alcotest.failf
              "seed %d: requested cross %.2f but measured spanning ratio %.3f"
              seed cross ratio)
        [ 0.1; 0.3; 0.5 ])
    [ 1; 2; 3 ]

let test_locality_single_key_never_spans () =
  (* YCSB-T is one same-key RMW per transaction: even at cross 1.0
     there is nothing to spread, and the knob must not invent keys. *)
  let wl = Workload.ycsb_t ~rng:(Rng.create ~seed:7) ~keys:256 ~theta:0.0 in
  Workload.set_locality wl (Some { Workload.shards = 4; cross = 1.0 });
  for _ = 1 to 500 do
    let req = Workload.next wl in
    if Workload.spans ~shards:4 req then
      Alcotest.fail "a single-key transaction reported as spanning"
  done

let test_locality_keys_stay_in_range () =
  let keys = 96 in
  let wl = Workload.rmw_pair ~rng:(Rng.create ~seed:9) ~keys ~theta:0.9 in
  Workload.set_locality wl (Some { Workload.shards = 3; cross = 0.5 });
  for _ = 1 to 2000 do
    let req = Workload.next wl in
    Array.iter
      (fun k -> if k < 0 || k >= keys then Alcotest.failf "read key %d" k)
      req.Intf.reads;
    Array.iter
      (fun (k, _) ->
        if k < 0 || k >= keys then Alcotest.failf "write key %d" k)
      req.Intf.writes
  done

let test_locality_validation () =
  let wl = Workload.rmw_pair ~rng:(Rng.create ~seed:1) ~keys:64 ~theta:0.0 in
  List.iter
    (fun bad ->
      match Workload.set_locality wl (Some bad) with
      | () -> Alcotest.fail "out-of-range locality accepted"
      | exception Invalid_argument _ -> ())
    [
      { Workload.shards = 0; cross = 0.5 };
      { Workload.shards = 2; cross = -0.1 };
      { Workload.shards = 2; cross = 1.5 };
    ];
  (* Clearing the knob restores purely local generation semantics. *)
  Workload.set_locality wl None

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "uniform at theta 0" `Quick test_zipf_uniform;
          Alcotest.test_case "samples in range" `Quick test_zipf_in_range;
          Alcotest.test_case "skew grows with theta" `Quick
            test_zipf_skew_increases_with_theta;
          Alcotest.test_case "matches analytic pmf" `Quick
            test_zipf_matches_analytic_probability;
          Alcotest.test_case "scramble bijective" `Quick test_zipf_scramble_is_bijective;
          Alcotest.test_case "validation" `Quick test_zipf_validation;
        ] );
      ( "ycsb-t",
        [
          Alcotest.test_case "one RMW per txn" `Quick test_ycsb_t_shape;
          Alcotest.test_case "values unique" `Quick test_ycsb_t_values_unique;
        ] );
      ( "retwis",
        [
          Alcotest.test_case "mix matches Table 2" `Quick test_retwis_mix_matches_table2;
          Alcotest.test_case "shapes and key bounds" `Quick test_retwis_shapes;
          Alcotest.test_case "pinned streams" `Quick test_pinned_streams;
          Alcotest.test_case "next within a words budget" `Quick
            test_retwis_next_alloc_budget;
        ] );
      ( "aux",
        [ Alcotest.test_case "read-only / write-only" `Quick test_read_only_and_write_only ]
      );
      ( "locality",
        [
          Alcotest.test_case "cross 0 and 1 extremes, 5 seeds" `Quick
            test_locality_cross_extremes;
          Alcotest.test_case "spanning ratio tracks cross" `Quick
            test_locality_tracks_cross;
          Alcotest.test_case "single-key never spans" `Quick
            test_locality_single_key_never_spans;
          Alcotest.test_case "keys stay in range" `Quick
            test_locality_keys_stay_in_range;
          Alcotest.test_case "knob validation" `Quick test_locality_validation;
        ] );
    ]
