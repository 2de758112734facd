(* The per-system observability handle: one registry, one tracer, and
   a flat array of per-phase latency histograms indexed by Span.kind.

   Protocol counters (committed/aborted/fast/slow/retransmits) are
   pre-created here so every system increments the same five
   instruments through one code path — this is the single home of the
   bookkeeping that used to be duplicated across Cluster, the sharded driver and
   the baselines. *)

type t = {
  registry : Registry.t;
  tracer : Tracer.t;
  clock : unit -> float;
  phases : Mk_util.Histogram.t array;  (* indexed by Span.index *)
  committed : Registry.counter;
  aborted : Registry.counter;
  fast_path : Registry.counter;
  slow_path : Registry.counter;
  retransmits : Registry.counter;
  sent : Registry.counter;
  dropped : Registry.counter;
  duplicated : Registry.counter;
  delayed : Registry.counter;
  epoch_changes : Registry.counter;
  view_changes : Registry.counter;
  fault_windows : Registry.counter;
  wire_bytes_tx : Registry.counter;
  wire_bytes_rx : Registry.counter;
  wire_msgs_tx : Registry.counter;
  wire_msgs_rx : Registry.counter;
  wire_dgrams_tx : Registry.counter;
  wire_dgrams_rx : Registry.counter;
  wire_decode_errors : Registry.counter;
  wire_send_errors : Registry.counter;
  wire_shard_drops : Registry.counter;
  wal_appends : Registry.counter;
  wal_bytes : Registry.counter;
  wal_fsyncs : Registry.counter;
  wal_replayed : Registry.counter;
  wal_snapshots_used : Registry.counter;
  wal_decode_errors : Registry.counter;
  snapshot_count : Registry.counter;
  snapshot_bytes : Registry.counter;
  gc_minor_words : Registry.counter;
  gc_majors : Registry.counter;
  alloc_per_txn : Registry.counter;
}

(* Track layout of the exported trace. *)
let client_pid = 0
let replica_pid r = 1 + r
let net_pid = 99

let create ?(trace = false) ~clock () =
  let registry = Registry.create () in
  {
    registry;
    tracer = Tracer.create ~enabled:trace ~clock ();
    clock;
    phases = Array.init Span.count (fun _ -> Mk_util.Histogram.create ());
    committed = Registry.counter registry "txn.committed";
    aborted = Registry.counter registry "txn.aborted";
    fast_path = Registry.counter registry "txn.fast_path";
    slow_path = Registry.counter registry "txn.slow_path";
    retransmits = Registry.counter registry "net.retransmits";
    sent = Registry.counter registry "net.sent";
    dropped = Registry.counter registry "net.dropped";
    duplicated = Registry.counter registry "net.duplicated";
    delayed = Registry.counter registry "net.delayed";
    epoch_changes = Registry.counter registry "recovery.epoch_changes";
    view_changes = Registry.counter registry "recovery.view_changes";
    fault_windows = Registry.counter registry "fault.windows";
    wire_bytes_tx = Registry.counter registry "wire.bytes_tx";
    wire_bytes_rx = Registry.counter registry "wire.bytes_rx";
    wire_msgs_tx = Registry.counter registry "wire.msgs_tx";
    wire_msgs_rx = Registry.counter registry "wire.msgs_rx";
    wire_dgrams_tx = Registry.counter registry "wire.dgrams_tx";
    wire_dgrams_rx = Registry.counter registry "wire.dgrams_rx";
    wire_decode_errors = Registry.counter registry "wire.decode_errors";
    wire_send_errors = Registry.counter registry "wire.send_errors";
    wire_shard_drops = Registry.counter registry "wire.shard_drops";
    wal_appends = Registry.counter registry "wal.appends";
    wal_bytes = Registry.counter registry "wal.bytes";
    wal_fsyncs = Registry.counter registry "wal.fsyncs";
    wal_replayed = Registry.counter registry "wal.replayed";
    wal_snapshots_used = Registry.counter registry "wal.snapshots_used";
    wal_decode_errors = Registry.counter registry "wal.decode_errors";
    snapshot_count = Registry.counter registry "snapshot.count";
    snapshot_bytes = Registry.counter registry "snapshot.bytes";
    gc_minor_words = Registry.counter registry "gc.minor_words";
    gc_majors = Registry.counter registry "gc.majors";
    alloc_per_txn = Registry.counter registry "alloc.per_txn";
  }

let registry t = t.registry
let tracer t = t.tracer
let now t = t.clock ()
let tracing t = Tracer.enabled t.tracer

(* --- Protocol counters (the one increment path). --- *)

let note_decision t ~committed ~fast =
  Registry.incr (if committed then t.committed else t.aborted);
  Registry.incr (if fast then t.fast_path else t.slow_path)

let note_retransmit t = Registry.incr t.retransmits
let note_send t = Registry.incr t.sent

let note_drop t =
  Registry.incr t.dropped;
  Tracer.instant t.tracer ~cat:"net" ~name:"msg.drop" ~pid:net_pid ~tid:0 ()

let note_duplicate t =
  Registry.incr t.duplicated;
  Tracer.instant t.tracer ~cat:"net" ~name:"msg.dup" ~pid:net_pid ~tid:0 ()

let note_delay t =
  Registry.incr t.delayed;
  Tracer.instant t.tracer ~cat:"net" ~name:"msg.delay" ~pid:net_pid ~tid:0 ()

let note_epoch_change t = Registry.incr t.epoch_changes
let note_view_change t = Registry.incr t.view_changes

let note_fault t ~name =
  Registry.incr t.fault_windows;
  Tracer.instant t.tracer ~cat:"fault" ~name ~pid:net_pid ~tid:1 ()

(* --- Wire counters (cluster backend: socket shim tx/rx). --- *)

(* One datagram can now carry several coalesced frames: the burst
   variant counts them in one call at flush time. *)
let note_wire_tx_burst t ~msgs ~bytes =
  Registry.add t.wire_msgs_tx msgs;
  Registry.add t.wire_bytes_tx bytes

let note_wire_tx t ~bytes = note_wire_tx_burst t ~msgs:1 ~bytes

let note_wire_rx t ~bytes =
  Registry.incr t.wire_msgs_rx;
  Registry.add t.wire_bytes_rx bytes

let note_wire_dgrams_tx t n = Registry.add t.wire_dgrams_tx n
let note_wire_dgram_rx t = Registry.incr t.wire_dgrams_rx
let note_wire_decode_error t = Registry.incr t.wire_decode_errors
let note_wire_send_errors t n = Registry.add t.wire_send_errors n
let note_wire_shard_drop t = Registry.incr t.wire_shard_drops

(* --- Durability counters (WAL appends, snapshots, replay). Like the
   registry itself these are not thread-safe: backends whose cores
   append from their own domains tally per-core and fold in here at a
   quiescent point (join / wait). --- *)

let note_wal_appends t ~appends ~bytes ~fsyncs =
  Registry.add t.wal_appends appends;
  Registry.add t.wal_bytes bytes;
  Registry.add t.wal_fsyncs fsyncs

let note_wal_append t ~bytes ~synced =
  note_wal_appends t ~appends:1 ~bytes ~fsyncs:(if synced then 1 else 0)

let note_wal_replayed t ~snapshots ~records ~errors =
  Registry.add t.wal_replayed records;
  Registry.add t.wal_snapshots_used snapshots;
  Registry.add t.wal_decode_errors errors

let note_snapshots t ~count ~bytes =
  Registry.add t.snapshot_count count;
  Registry.add t.snapshot_bytes bytes

let note_snapshot t ~bytes = note_snapshots t ~count:1 ~bytes

(* --- Allocation counters (batched message plane). Folded in at a
   quiescent point like the WAL tallies: [minor_words] is the
   domain-summed Gc delta over the run, [majors] the major-collection
   count, and [per_txn] the words-per-committed-transaction quotient
   the CI alloc-regression guard asserts against. --- *)

let note_gc t ~minor_words ~majors ~per_txn =
  Registry.add t.gc_minor_words minor_words;
  Registry.add t.gc_majors majors;
  Registry.add t.alloc_per_txn per_txn

let counter_value t name = Registry.value (Registry.counter t.registry name)

(* --- Lifecycle spans. --- *)

let span t kind ?(pid = client_pid) ?(tid = 0) ?args ~start ?finish () =
  let finish = match finish with Some f -> f | None -> t.clock () in
  let dur = finish -. start in
  let dur = if dur < 0.0 then 0.0 else dur in
  Mk_util.Histogram.add t.phases.(Span.index kind) dur;
  Tracer.complete t.tracer ?args ~name:(Span.to_string kind) ~pid ~tid ~start ~finish
    ()

let core_busy t ~pid ~tid ~start ~finish =
  Tracer.complete t.tracer ~cat:"core" ~name:"busy" ~pid ~tid ~start ~finish ()

let phase_histogram t kind = t.phases.(Span.index kind)

let phase_summary t =
  List.map (fun kind -> (kind, Registry.summarize t.phases.(Span.index kind))) Span.all

let reset_phases t =
  Array.iteri (fun i _ -> t.phases.(i) <- Mk_util.Histogram.create ()) t.phases

(* --- Reports. --- *)

let metrics_dump t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Export.metrics_dump t.registry);
  List.iter
    (fun (kind, (s : Registry.histogram_summary)) ->
      Buffer.add_string b
        (Printf.sprintf "phase   %-28s n=%d mean=%.2f p50=%.2f p99=%.2f\n"
           (Span.to_string kind) s.Registry.count s.Registry.mean s.Registry.p50
           s.Registry.p99))
    (phase_summary t);
  Buffer.contents b

let chrome_trace t = Export.chrome_trace t.tracer
let write_chrome_trace t ~path = Export.write_chrome_trace t.tracer ~path
