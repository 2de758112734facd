(* Unit tests for the utility layer: RNG, heap, stats, histogram,
   tables. *)

module Rng = Mk_util.Rng
module Heap = Mk_util.Heap
module Stats = Mk_util.Stats
module Histogram = Mk_util.Histogram
module Table = Mk_util.Table

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_bad_bound () =
  let rng = Rng.create ~seed:3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_uniform_range_and_mean () =
  let rng = Rng.create ~seed:5 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let u = Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0.0 && u < 1.0);
    sum := !sum +. u
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:11 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 c1 = Rng.bits64 c2 then incr same
  done;
  Alcotest.(check int) "children differ" 0 !same

let test_rng_copy_replays () =
  let rng = Rng.create ~seed:13 in
  ignore (Rng.bits64 rng);
  let snap = Rng.copy rng in
  let a = Rng.bits64 rng in
  let b = Rng.bits64 snap in
  Alcotest.(check int64) "copy replays" a b

(* The stream itself, pinned: every sim golden and seeded workload
   rests on these exact outputs, so a change to the generator's state
   layout must not move a single bit. *)
let test_rng_pinned_streams () =
  let first3 seed =
    let r = Rng.create ~seed in
    let a = Rng.bits64 r in
    let b = Rng.bits64 r in
    let c = Rng.bits64 r in
    [ a; b; c ]
  in
  let check name seed expected =
    Alcotest.(check (list int64)) name expected (first3 seed)
  in
  check "seed 0" 0
    [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L ];
  check "seed 1" 1
    [ -5480124913605472059L; -8846382939111011094L; -7856363154187860716L ];
  check "seed 42" 42
    [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L ];
  check "seed max_int" max_int
    [ 7651040205805895144L; 8109190802567772668L; -9096090508748817784L ];
  (* The derived draws consume the same stream. *)
  let r = Rng.create ~seed:42 in
  let i1 = Rng.int r 1000 in
  let i2 = Rng.int r 1000 in
  let i3 = Rng.int r 1000 in
  Alcotest.(check (list int)) "int 1000, seed 42" [ 685; 775; 752 ] [ i1; i2; i3 ];
  Alcotest.(check (float 0.0)) "uniform, seed 42" 0x1.d9715a8e0766cp-1 (Rng.uniform r);
  Alcotest.(check bool) "bool, seed 42" false (Rng.bool r);
  let r = Rng.create ~seed:0 in
  ignore (Rng.int r 1000 : int);
  ignore (Rng.int r 1000 : int);
  ignore (Rng.int r 1000 : int);
  Alcotest.(check (float 0.0)) "uniform, seed 0" 0x1.aa9653c498b4ap-2 (Rng.uniform r);
  Alcotest.(check bool) "bool, seed 0" true (Rng.bool r)

let test_rng_pinned_split_and_copy () =
  let parent = Rng.create ~seed:42 in
  let child = Rng.split parent in
  let c1 = Rng.bits64 child in
  let c2 = Rng.bits64 child in
  Alcotest.(check (list int64)) "split child, seed 42"
    [ -8150312660505607085L; 1184342940732292706L ]
    [ c1; c2 ];
  (* [split] consumed exactly one parent draw. *)
  Alcotest.(check int64) "parent after split" 6990951692964543102L
    (Rng.bits64 parent);
  let r = Rng.create ~seed:7 in
  ignore (Rng.bits64 r : int64);
  let snap = Rng.copy r in
  let d1 = Rng.bits64 snap in
  let d2 = Rng.bits64 snap in
  Alcotest.(check (list int64)) "copy, seed 7 after one draw"
    [ 5142052590334782674L; -2958351167216911978L ]
    [ d1; d2 ];
  (* The copy is independent: the original still replays from where
     the copy was taken. *)
  let o1 = Rng.bits64 r in
  let o2 = Rng.bits64 r in
  Alcotest.(check (list int64)) "original unaffected by the copy" [ d1; d2 ] [ o1; o2 ]

(* The per-draw fast path: [int] keeps the state and every step in
   unboxed words, so it allocates nothing at all. *)
let test_rng_int_allocates_nothing () =
  let rng = Rng.create ~seed:3 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int rng 100
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "drew something" true (!acc > 0);
  Alcotest.(check (float 0.0)) "words over 10 000 Rng.int calls" 0.0 words

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:17 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.exponential rng ~mean:4.0 in
    Alcotest.(check bool) "non-negative" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (abs_float (mean -. 4.0) < 0.1)

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:19 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 100 (fun i -> i)) sorted;
  Alcotest.(check bool) "actually permuted" true (a <> Array.init 100 (fun i -> i))

(* --- Heap --- *)

let test_heap_sorts () =
  let h = Heap.create ~cmp:compare in
  let rng = Rng.create ~seed:23 in
  let n = 1000 in
  for _ = 1 to n do
    Heap.push h (Rng.int rng 10_000)
  done;
  Alcotest.(check int) "length" n (Heap.length h);
  let prev = ref min_int in
  for _ = 1 to n do
    let v = Heap.pop_exn h in
    Alcotest.(check bool) "non-decreasing" true (v >= !prev);
    prev := v
  done;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_peek_pop () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  Heap.push h 5;
  Heap.push h 3;
  Alcotest.(check (option int)) "peek min" (Some 3) (Heap.peek h);
  Alcotest.(check (option int)) "pop min" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "then next" (Some 5) (Heap.pop h)

let test_heap_pop_exn_empty () =
  let h = Heap.create ~cmp:compare in
  Alcotest.check_raises "pop_exn empty" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let test_heap_clear_and_to_list () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 4; 1; 3 ];
  Alcotest.(check int) "to_list size" 3 (List.length (Heap.to_list h));
  Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Heap.length h)

(* --- Stats --- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max s);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stats.total s);
  (* Sample variance of 1..4 = 5/3. *)
  Alcotest.(check (float 1e-9)) "variance" (5.0 /. 3.0) (Stats.variance s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  List.iter (Stats.add b) [ 3.0; 4.0; 5.0 ];
  List.iter (Stats.add whole) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  let m = Stats.merge a b in
  Alcotest.(check int) "count" (Stats.count whole) (Stats.count m);
  Alcotest.(check (float 1e-9)) "mean" (Stats.mean whole) (Stats.mean m);
  Alcotest.(check (float 1e-9)) "variance" (Stats.variance whole) (Stats.variance m)

let test_stats_percentile () =
  let samples = Array.init 101 (fun i -> float_of_int i) in
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile samples 0.0);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile samples 50.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile samples 100.0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (Stats.percentile [||] 50.0))

(* --- Histogram --- *)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let p50 = Histogram.percentile h 50.0 in
  Alcotest.(check bool) "p50 near 500" true (p50 > 450.0 && p50 < 550.0);
  let p99 = Histogram.percentile h 99.0 in
  Alcotest.(check bool) "p99 near 990" true (p99 > 900.0 && p99 < 1080.0)

let test_histogram_mean_and_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 10.0;
  Histogram.add b 30.0;
  Histogram.merge_into ~dst:a ~src:b;
  Alcotest.(check int) "merged count" 2 (Histogram.count a);
  Alcotest.(check (float 1e-9)) "merged mean" 20.0 (Histogram.mean a)

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check (float 1e-9)) "empty percentile is 0" 0.0
    (Histogram.percentile h 50.0);
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Histogram.mean h))

let test_histogram_merge_pure () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 10.0;
  Histogram.add a 10.0;
  Histogram.add b 30.0;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 3 (Histogram.count m);
  Alcotest.(check (float 1e-6)) "merged mean" (50.0 /. 3.0) (Histogram.mean m);
  (* Inputs untouched. *)
  Alcotest.(check int) "a unchanged" 2 (Histogram.count a);
  Alcotest.(check int) "b unchanged" 1 (Histogram.count b)

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "line count" 5 (List.length lines) (* header, sep, 2 rows, trailing *);
  Alcotest.(check bool) "keeps order" true
    (match lines with
    | _ :: _ :: r1 :: r2 :: _ ->
        String.length r1 > 0 && r1.[0] = '1' && String.length r2 > 0 && r2.[0] = '3'
    | _ -> false)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "uniform range and mean" `Quick test_rng_uniform_range_and_mean;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
          Alcotest.test_case "pinned split and copy" `Quick
            test_rng_pinned_split_and_copy;
          Alcotest.test_case "int allocates nothing" `Quick
            test_rng_int_allocates_nothing;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop;
          Alcotest.test_case "pop_exn on empty" `Quick test_heap_pop_exn_empty;
          Alcotest.test_case "clear and to_list" `Quick test_heap_clear_and_to_list;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/var/min/max" `Quick test_stats_basic;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "mean and merge" `Quick test_histogram_mean_and_merge;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "pure merge" `Quick test_histogram_merge_pure;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
    ]
