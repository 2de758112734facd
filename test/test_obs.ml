(* The observability subsystem: metrics registry, span tracer against
   a scripted clock, and the Chrome-trace exporter — including the
   determinism guarantee (same seed => byte-identical trace). *)

module Engine = Mk_sim.Engine
module Transport = Mk_net.Transport
module Histogram = Mk_util.Histogram
module Registry = Mk_obs.Registry
module Span = Mk_obs.Span
module Tracer = Mk_obs.Tracer
module Obs = Mk_obs.Obs
module S = Mk_meerkat.Sim_system

(* --- Registry --- *)

let test_registry_counters () =
  let r = Registry.create () in
  let c = Registry.counter r "txn.committed" in
  Alcotest.(check int) "fresh counter is 0" 0 (Registry.value c);
  Registry.incr c;
  Registry.incr c;
  Registry.add c 3;
  Alcotest.(check int) "incr+add" 5 (Registry.value c);
  (* Find-or-create: same name, same instrument. *)
  let c' = Registry.counter r "txn.committed" in
  Registry.incr c';
  Alcotest.(check int) "same handle by name" 6 (Registry.value c);
  let g = Registry.gauge r "cores.busy" in
  Registry.set g 0.75;
  Alcotest.(check (float 1e-9)) "gauge" 0.75 (Registry.gauge_value g)

let test_registry_snapshot_sorted () =
  let r = Registry.create () in
  Registry.incr (Registry.counter r "zeta");
  Registry.incr (Registry.counter r "alpha");
  Registry.incr (Registry.counter r "mid");
  let snap = Registry.snapshot r in
  Alcotest.(check (list string)) "sorted by name"
    [ "alpha"; "mid"; "zeta" ]
    (List.map fst snap.Registry.counters)

let test_summarize_empty_histogram () =
  let h = Histogram.create () in
  (* Satellite guarantee: empty percentiles are 0, never NaN. *)
  Alcotest.(check (float 1e-9)) "empty p50" 0.0 (Histogram.percentile h 50.0);
  let s = Registry.summarize h in
  Alcotest.(check int) "count" 0 s.Registry.count;
  Alcotest.(check (float 1e-9)) "mean" 0.0 s.Registry.mean;
  Alcotest.(check (float 1e-9)) "p50" 0.0 s.Registry.p50;
  Alcotest.(check (float 1e-9)) "p99" 0.0 s.Registry.p99

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for i = 1 to 10 do
    Histogram.add a (float_of_int i)
  done;
  for i = 11 to 20 do
    Histogram.add b (float_of_int i)
  done;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 20 (Histogram.count m);
  Alcotest.(check int) "inputs untouched" 10 (Histogram.count a);
  let p50 = Histogram.percentile m 50.0 in
  Alcotest.(check bool) "merged p50 between inputs" true
    (p50 > Histogram.percentile a 50.0 && p50 < Histogram.percentile b 50.0)

(* --- Spans against a scripted clock --- *)

let scripted () =
  let t = ref 0.0 in
  (t, fun () -> !t)

let test_spans_feed_phase_histograms () =
  let clock_state, clock = scripted () in
  let obs = Obs.create ~clock () in
  clock_state := 10.0;
  Obs.span obs Span.Validate ~start:4.0 ();
  (* finish defaults to now *)
  Obs.span obs Span.Validate ~start:0.0 ~finish:2.0 ();
  Obs.span obs Span.Fast_quorum ~start:1.0 ~finish:9.0 ();
  let v = Registry.summarize (Obs.phase_histogram obs Span.Validate) in
  Alcotest.(check int) "validate count" 2 v.Registry.count;
  Alcotest.(check (float 0.3)) "validate mean" 4.0 v.Registry.mean;
  let summary = Obs.phase_summary obs in
  Alcotest.(check int) "one entry per kind" Span.count (List.length summary);
  let fq = List.assoc Span.Fast_quorum summary in
  Alcotest.(check int) "fast-quorum count" 1 fq.Registry.count;
  Alcotest.(check int) "empty phase present"
    0 (List.assoc Span.Slow_accept summary).Registry.count;
  Obs.reset_phases obs;
  Alcotest.(check int) "reset" 0
    (Registry.summarize (Obs.phase_histogram obs Span.Validate)).Registry.count

let test_wire_counters () =
  (* The cluster backend's socket shim accounts every frame here;
     meerkat_node --metrics and the node's exit stats read these. *)
  let _, clock = scripted () in
  let obs = Obs.create ~clock () in
  List.iter
    (fun n ->
      Alcotest.(check int) (n ^ " starts at 0") 0 (Obs.counter_value obs n))
    [
      "wire.msgs_tx"; "wire.msgs_rx"; "wire.bytes_tx"; "wire.bytes_rx";
      "wire.dgrams_tx"; "wire.dgrams_rx"; "wire.decode_errors";
    ];
  Obs.note_wire_tx obs ~bytes:40;
  Obs.note_wire_tx obs ~bytes:60;
  Obs.note_wire_rx obs ~bytes:25;
  (* Frames and datagrams are counted apart: two frames coalesced into
     one datagram are two msgs and one dgram. *)
  Obs.note_wire_dgrams_tx obs 1;
  Obs.note_wire_dgram_rx obs;
  Obs.note_wire_decode_error obs;
  Alcotest.(check int) "msgs_tx" 2 (Obs.counter_value obs "wire.msgs_tx");
  Alcotest.(check int) "bytes_tx" 100 (Obs.counter_value obs "wire.bytes_tx");
  Alcotest.(check int) "msgs_rx" 1 (Obs.counter_value obs "wire.msgs_rx");
  Alcotest.(check int) "bytes_rx" 25 (Obs.counter_value obs "wire.bytes_rx");
  Alcotest.(check int) "dgrams_tx" 1 (Obs.counter_value obs "wire.dgrams_tx");
  Alcotest.(check int) "dgrams_rx" 1 (Obs.counter_value obs "wire.dgrams_rx");
  Alcotest.(check int) "decode_errors" 1
    (Obs.counter_value obs "wire.decode_errors")

let test_tracer_nesting () =
  let clock_state, clock = scripted () in
  let tr = Tracer.create ~enabled:true ~clock () in
  Tracer.begin_span tr ~name:"outer" ~pid:1 ~tid:0 ();
  clock_state := 5.0;
  Tracer.begin_span tr ~name:"inner" ~pid:1 ~tid:0 ();
  clock_state := 7.0;
  Tracer.end_span tr ~name:"inner" ~pid:1 ~tid:0 ();
  clock_state := 9.0;
  Tracer.end_span tr ~name:"outer" ~pid:1 ~tid:0 ();
  let evs = Tracer.events tr in
  Alcotest.(check int) "four events" 4 (List.length evs);
  let shape =
    List.map
      (fun e ->
        ( e.Tracer.name,
          e.Tracer.ts,
          match e.Tracer.phase with
          | Tracer.Begin -> "B"
          | Tracer.End -> "E"
          | _ -> "?" ))
      evs
  in
  Alcotest.(check bool) "B/E nest by timestamps" true
    (shape
    = [
        ("outer", 0.0, "B"); ("inner", 5.0, "B"); ("inner", 7.0, "E");
        ("outer", 9.0, "E");
      ])

let test_disabled_tracer_records_nothing () =
  let _, clock = scripted () in
  let obs = Obs.create ~clock () in
  Obs.span obs Span.Validate ~start:0.0 ~finish:1.0 ();
  Obs.core_busy obs ~pid:1 ~tid:0 ~start:0.0 ~finish:1.0;
  Alcotest.(check int) "no trace events" 0 (Tracer.length (Obs.tracer obs));
  (* ... but the phase histogram still filled. *)
  Alcotest.(check int) "histogram still live" 1
    (Registry.summarize (Obs.phase_histogram obs Span.Validate)).Registry.count

(* --- End-to-end: traced Meerkat run --- *)

(* A lossy run with a mid-run crash exercises every span kind: reads
   (Execute/Validate), fast path before the crash, slow path after,
   write-backs, and drop-driven retransmissions. *)
let traced_run ~seed =
  let engine = Engine.create ~seed () in
  let obs = Obs.create ~trace:true ~clock:(fun () -> Engine.now engine) () in
  let cfg =
    {
      S.default_config with
      threads = 4;
      n_clients = 8;
      keys = 128;
      seed;
      transport = Transport.with_drop Transport.erpc 0.05;
    }
  in
  let sys = S.create ~obs engine cfg in
  let remaining = ref (8 * 12) in
  let rec loop c n =
    if n > 0 then
      let key = ((c * 31) + (n * 7)) mod 128 in
      S.submit sys ~client:c
        { Mk_model.System_intf.reads = [| key |]; writes = [| (key, n) |] }
        ~on_done:(fun ~committed:_ ->
          decr remaining;
          loop c (n - 1))
  in
  for c = 0 to 7 do
    loop c 12
  done;
  Engine.schedule engine ~delay:150.0 (fun () -> S.crash_replica sys 2);
  Engine.run ~max_events:20_000_000 engine;
  Alcotest.(check int) "all txns decided" 0 !remaining;
  obs

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec probe i = i + n <= m && (String.sub s i n = sub || probe (i + 1)) in
  probe 0

let test_trace_covers_all_phases () =
  let obs = traced_run ~seed:11 in
  let json = Obs.chrome_trace obs in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Span.to_string kind ^ " present in trace")
        true
        (contains ~sub:(Printf.sprintf "%S" (Span.to_string kind)) json))
    Span.all

let test_trace_deterministic () =
  let a = Obs.chrome_trace (traced_run ~seed:11) in
  let b = Obs.chrome_trace (traced_run ~seed:11) in
  Alcotest.(check bool) "same seed, byte-identical trace" true (a = b);
  let c = Obs.chrome_trace (traced_run ~seed:12) in
  Alcotest.(check bool) "different seed, different trace" true (a <> c)

(* --- Exported JSON is well-formed --- *)

(* A tiny JSON syntax checker — no JSON library in the build, and the
   exporter hand-rolls its output, so parse it back to be sure. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let fail () = raise Exit in
  let expect c = if peek () = Some c then advance () else fail () in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail ()
  and literal lit =
    String.iter (fun c -> if peek () = Some c then advance () else fail ()) lit
  and number () =
    let numchar = function
      | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true
      | _ -> false
    in
    let start = !pos in
    while (match peek () with Some c when numchar c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail ()
  and string_lit () =
    expect '"';
    let rec body () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' -> advance (); advance (); body ()
      | Some _ -> advance (); body ()
      | None -> fail ()
    in
    body ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); elems ()
        | Some ']' -> advance ()
        | _ -> fail ()
      in
      elems ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); members ()
        | Some '}' -> advance ()
        | _ -> fail ()
      in
      members ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let test_trace_is_valid_json () =
  Alcotest.(check bool) "checker accepts JSON" true
    (json_valid {|{"a": [1, -2.5e3, "x\"y", true, null], "b": {}}|});
  Alcotest.(check bool) "checker rejects garbage" false (json_valid {|{"a": }|});
  Alcotest.(check bool) "checker rejects trailing" false (json_valid "{} x");
  let json = Obs.chrome_trace (traced_run ~seed:3) in
  Alcotest.(check bool) "non-trivial trace" true (String.length json > 1000);
  Alcotest.(check bool) "chrome trace parses" true (json_valid json)

let test_metrics_dump_mentions_counters () =
  let obs = traced_run ~seed:4 in
  let dump = Obs.metrics_dump obs in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in dump") true (contains ~sub:name dump))
    [ "txn.committed"; "txn.fast_path"; "net.sent" ]

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counters and gauges" `Quick test_registry_counters;
          Alcotest.test_case "snapshot sorted" `Quick test_registry_snapshot_sorted;
          Alcotest.test_case "empty histogram summary" `Quick
            test_summarize_empty_histogram;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
          Alcotest.test_case "wire counters" `Quick test_wire_counters;
        ] );
      ( "spans",
        [
          Alcotest.test_case "phase histograms" `Quick
            test_spans_feed_phase_histograms;
          Alcotest.test_case "tracer nesting" `Quick test_tracer_nesting;
          Alcotest.test_case "disabled tracer no-ops" `Quick
            test_disabled_tracer_records_nothing;
        ] );
      ( "trace",
        [
          Alcotest.test_case "covers all six phases" `Quick
            test_trace_covers_all_phases;
          Alcotest.test_case "deterministic across runs" `Quick
            test_trace_deterministic;
          Alcotest.test_case "valid JSON" `Quick test_trace_is_valid_json;
          Alcotest.test_case "metrics dump" `Quick
            test_metrics_dump_mentions_counters;
        ] );
    ]
