(** Per-system observability handle: metrics registry + span tracer +
    per-phase latency histograms.

    Every simulated system carries one of these. Protocol counters and
    lifecycle spans all flow through it; the harness reads the
    per-phase breakdown from it, and the exporters turn it into a
    Chrome trace and a metrics dump. Tracing is off by default and
    every span call is a cheap no-op then; the registry and phase
    histograms are always live (they are what the benchmark reports
    are built from). *)

type t

val create : ?trace:bool -> clock:(unit -> float) -> unit -> t
(** [clock] supplies timestamps — in this repo always
    [fun () -> Engine.now engine], so all times are simulated
    microseconds. *)

val registry : t -> Registry.t
val tracer : t -> Tracer.t
val now : t -> float
val tracing : t -> bool

(** {2 Trace track layout} *)

val client_pid : int
(** Track of client-side lifecycle spans; [tid] = client id. *)

val replica_pid : int -> int
(** Track of replica [r]; [tid] = core index. *)

val net_pid : int
(** Track of network events (drops). *)

(** {2 Protocol counters — the single increment path} *)

val note_decision : t -> committed:bool -> fast:bool -> unit
val note_retransmit : t -> unit
val note_send : t -> unit
val note_drop : t -> unit
val note_duplicate : t -> unit
val note_delay : t -> unit

val note_epoch_change : t -> unit
(** A message-driven §5.3.1 epoch change completed successfully. *)

val note_view_change : t -> unit
(** A detector-initiated §5.3.2 coordinator view change finished a
    stuck transaction. *)

val note_fault : t -> name:string -> unit
(** A nemesis fault window opened or closed, or a crash was injected;
    counted under [fault.windows] and mirrored as a trace instant on
    the network track. *)

val note_wire_tx : t -> bytes:int -> unit
(** One frame handed to the socket ([wire.msgs_tx]++,
    [wire.bytes_tx] += frame size). Cluster backend only. *)

val note_wire_tx_burst : t -> msgs:int -> bytes:int -> unit
(** [msgs] coalesced frames left in one datagram of [bytes] total —
    the bulk form the shim's flush uses so [wire.msgs_tx] still counts
    frames, not datagrams. *)

val note_wire_rx : t -> bytes:int -> unit
(** One frame received and decoded ([wire.msgs_rx]++,
    [wire.bytes_rx] += frame size). A datagram can carry several
    frames; the shim calls this once per frame. *)

val note_wire_dgrams_tx : t -> int -> unit
(** [n] datagrams left the socket, one per successful [sendto]
    ([wire.dgrams_tx] += [n]) — folded with the packer's frame tally,
    so [wire.msgs_tx / wire.dgrams_tx] is the coalescing factor. *)

val note_wire_dgram_rx : t -> unit
(** One datagram taken off the socket by [recvfrom]
    ([wire.dgrams_rx]++), however many frames it carries. *)

val note_wire_decode_error : t -> unit
(** A datagram failed to decode, or carried ids a node cannot act on
    (out-of-range replica/slot) ([wire.decode_errors]++) — counted,
    dropped, never fatal. *)

val note_wire_send_errors : t -> int -> unit
(** [n] frames [sendto] rejected for a non-transient reason — above
    all [EMSGSIZE], an encoding larger than one UDP datagram, which no
    retransmit will ever fix ([wire.send_errors] += [n]). Transient
    unreachable-peer errors are ordinary UDP loss and are not
    counted. *)

val note_wire_shard_drop : t -> unit
(** A well-formed frame stamped with another shard group's id reached
    this socket ([wire.shard_drops]++) — a misconfigured deployment or
    crossed ports; counted and dropped before the payload is acted
    on. *)

(** {2 Durability counters}

    [wal.appends]/[wal.bytes]/[wal.fsyncs] meter the write-ahead
    log's steady-state cost, [wal.replayed]/[wal.decode_errors] its
    recovery path, [snapshot.count]/[snapshot.bytes] the checkpoint
    traffic. Not thread-safe (like every counter here): backends that
    append from per-core domains tally privately and fold in at a
    quiescent point via {!note_wal_appends}. *)

val note_wal_append : t -> bytes:int -> synced:bool -> unit
(** One record appended; [synced] when this append carried an fsync. *)

val note_wal_appends : t -> appends:int -> bytes:int -> fsyncs:int -> unit
(** Bulk fold of a per-core tally. *)

val note_wal_replayed :
  t -> snapshots:int -> records:int -> errors:int -> unit
(** Recovery replayed [records] log entries on top of [snapshots]
    restored checkpoint images ([wal.snapshots_used]) and
    skipped [errors] torn/corrupt frames or unusable files. A fresh
    boot leaves all three at zero; [records + snapshots > 0] is the
    proof that a process came back from a previous incarnation's data
    directory (a snapshot taken right before the crash legitimately
    leaves no log suffix to replay). *)

val note_snapshot : t -> bytes:int -> unit
(** One snapshot file written. *)

val note_snapshots : t -> count:int -> bytes:int -> unit
(** Bulk fold of a per-core snapshot tally. *)

val note_gc : t -> minor_words:int -> majors:int -> per_txn:int -> unit
(** Fold one run's allocation footprint at a quiescent point:
    [gc.minor_words] (domain-summed minor allocation over the run),
    [gc.majors] (major collections), and [alloc.per_txn] (minor words
    per committed transaction — the figure the CI alloc-regression
    guard bounds). *)

val counter_value : t -> string -> int
(** Current value of the named counter (0 if never incremented). *)

(** {2 Lifecycle spans} *)

val span :
  t ->
  Span.kind ->
  ?pid:int ->
  ?tid:int ->
  ?args:(string * Tracer.arg) list ->
  start:float ->
  ?finish:float ->
  unit ->
  unit
(** Record one completed phase: always feeds the per-kind histogram,
    and also emits a trace span when tracing is on. [finish] defaults
    to the clock now. *)

val core_busy : t -> pid:int -> tid:int -> start:float -> finish:float -> unit
(** Trace-only busy interval of a server core (idle time is the gap
    between busy spans). *)

val phase_histogram : t -> Span.kind -> Mk_util.Histogram.t

val phase_summary : t -> (Span.kind * Registry.histogram_summary) list
(** One entry per {!Span.kind}, in {!Span.all} order. *)

val reset_phases : t -> unit
(** Forget phase latencies recorded so far (the harness calls this
    when the measurement window opens). *)

(** {2 Reports} *)

val metrics_dump : t -> string
val chrome_trace : t -> string
val write_chrome_trace : t -> path:string -> unit
