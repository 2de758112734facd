(** The live runtime: the full Meerkat commit protocol on real OCaml 5
    domains, driven by the same {!Mk_meerkat.Protocol} state machine as
    the discrete-event simulator (DESIGN.md §9), for one shard group or
    many (§13).

    Each shard group is a full single-group topology: server domain [k]
    of a group hosts core [k] of every replica of that group (validate,
    accept, and write-back against the core-[k] trecord partitions).
    Coordinator domains run the clients, one {!Mk_meerkat.Attempts}
    table and one {!Mk_shard.Driver} each, over every group — the same
    attempt table and cross-shard 2PC driver as the cluster client. All
    cross-domain communication is a message through a bounded
    {!Mailbox} — the transaction fast path shares no other mutable
    state between domains beyond the storage layer's sanctioned shard
    locks.

    With [config.chaos] set (one group only), the run additionally
    spawns one monitor domain hosting the transport-agnostic
    {!Mk_meerkat.Detector}, routes every cross-domain message through a
    {!Link} applying the nemesis plan, injects the plan's replica
    fail-stops and coordinator kills, and drives real
    detector-initiated §5.3.2 view changes and §5.3.1 epoch changes
    over the mailboxes (DESIGN.md §10). *)

type workload_kind = Ycsb_t | Rmw_pair | Retwis

(** Durability wiring (DESIGN.md §12): one WAL per (replica, core)
    under [dir] — server domain [k] owns core [k] of every replica, so
    each [r<r>-c<k>.wal] has a single writer — plus full per-core
    snapshots written by the monitor at every completed §5.3.1 epoch
    install, while the server domains are parked. *)
type durable = { dir : string; policy : Mk_durable.Wal.policy }

(** Chaos-mode wiring: the nemesis plan plus the detector tuning and
    the run's time envelope. *)
type chaos = {
  plan : Mk_fault.Nemesis.plan;
      (** Fault windows and crash events, with all times in wall µs
          from the start of the run (generate it with
          [Nemesis.plan ~horizon:horizon_us]). *)
  detector : Mk_meerkat.Detector.cfg;
      (** Failure-detector tuning in wall µs — see
          {!chaos_detector_cfg} for a horizon-scaled default. *)
  horizon_us : float;
      (** Fault-injection horizon; must equal [duration *. 1e6]. *)
  settle_us : float;
      (** Fault-free grace after the horizon: detectors keep running
          for the first half and only in-flight recovery finishes in
          the second, so the final state is quiescent. *)
}

type config = {
  shards : int;
      (** Shard groups, each with its own replicas and server domains
          (default 1). Above 1, [chaos] and [durable] must be [None]. *)
  policy : Mk_shard.Router.policy;  (** Key placement over the groups. *)
  server_domains : int;
      (** Server domains per group; also cores per replica. *)
  n_replicas : int;  (** Per group. Odd, >= 3. *)
  coordinators : int;  (** Coordinator domains. *)
  clients : int;  (** Clients, split round-robin over the coordinators. *)
  keys : int;  (** Global keyspace, spread over the groups. *)
  theta : float;  (** Zipf skew of the workload. *)
  workload : workload_kind;
  cross : float;
      (** Probability a multi-key transaction spans more than one group
          ({!Mk_workload.Workload.locality}; applied only with
          [shards > 1] under the Mod placement policy). *)
  txns_per_client : int;  (** Quota per client (ignored with [duration]). *)
  duration : float option;
      (** Wall seconds to keep submitting; overrides [txns_per_client].
          Required (= the horizon) when [chaos] is set. *)
  offered_rate : float option;
      (** [Some r]: open-loop load generation at an AGGREGATE [r]
          txn/s across all clients — each client launches on a fixed
          arithmetic schedule (phase-staggered by client id) and
          latency is measured from the INTENDED launch instant, so a
          saturated system reports its queueing delay instead of
          silently thinning the offered load (no coordinated
          omission). [None] (default): closed loop — every client
          resubmits as soon as its previous transaction decides. *)
  seed : int;
  rto_us : float;  (** Initial retransmission timeout (wall µs). *)
  grace_us : float;  (** Fast-path grace before settling slow (wall µs). *)
  server_inbox : int;  (** Server mailbox capacity (power of two). *)
  coord_inbox : int;
      (** Coordinator mailbox capacity (power of two). Must exceed the
          coordinator's worst-case outstanding replies — at least 4 ×
          its local clients × [n_replicas] × [shards] — so servers
          never block pushing replies (the deadlock-freedom argument in
          the implementation). {!run} enforces this floor. *)
  chaos : chaos option;
      (** [None] = the fault-free fast path. Needs [shards = 1]. *)
  durable : durable option;
      (** [None] = no persistence (the default). Needs [shards = 1]. *)
}

val default_config : config

val chaos_detector_cfg : horizon_us:float -> Mk_meerkat.Detector.cfg
(** Detector tuning scaled to a wall-clock horizon: heartbeats every
    horizon/100, suspicion after horizon/16 of silence, trecord scans
    every horizon/64, stuck records recovered after horizon/16 (well
    inside a crashed coordinator's down time, so view changes really
    fire), give-up after horizon/2.5. *)

type report = {
  shards : int;
  server_domains : int;
  coordinators : int;
  clients : int;
  committed : (Mk_storage.Txn.t * Mk_clock.Timestamp.t) list;
      (** Every acknowledged commit, across all coordinators, as one
          global history over global keys (merged with
          {!Mk_shard.History.merge}) — feed to
          {!Mk_harness.Checker.check} for the serializability verdict. *)
  sub_histories : (int * (Mk_storage.Txn.t * Mk_clock.Timestamp.t) list) list;
      (** The same commits per group, over local keys, ascending by
          shard. *)
  committed_count : int;  (** Global transactions committed. *)
  aborted : int;
  cross_shard : int;  (** Decided transactions that involved >1 group. *)
  fast_path : int;  (** Per-group attempts, not global transactions. *)
  slow_path : int;
  retransmits : int;
  wall_seconds : float;
  throughput : float;  (** Committed transactions per wall second. *)
  abort_rate : float;  (** Aborted / decided, in \[0, 1\]. *)
  p50_us : float;  (** Client-perceived commit latency percentiles. *)
  p99_us : float;
  submitted : int;  (** Transactions started across all clients. *)
  acked : int;  (** Transactions that reached a commit/abort ack. *)
  epoch_changes : int;  (** Detector-driven §5.3.1 completions (chaos). *)
  view_changes : int;  (** Detector-driven §5.3.2 completions (chaos). *)
  fault_events : int;  (** Window edges + crash injections applied. *)
  link_dropped : int;
  link_duplicated : int;
  link_delayed : int;
  wal_appends : int;  (** WAL records appended, summed over domains. *)
  wal_bytes : int;
  wal_fsyncs : int;
  snapshots : int;  (** Per-core snapshots written at epoch installs. *)
  snapshot_bytes : int;
  gc_minor_words : int;
      (** Minor words allocated over the whole run, summed across all
          domains (terminated domains fold their counters into the
          global totals at join). *)
  gc_majors : int;  (** Major collections over the run. *)
  alloc_per_txn : int;
      (** [gc_minor_words / committed_count] — the figure the CI
          alloc-regression guard bounds. *)
  groups : Mk_meerkat.Replica.t array array;
      (** The run's replicas, [.(shard).(replica)], quiescent after the
          join — the chaos harness checks its agreement/bounded/available
          invariants directly against group 0. *)
}

val run : config -> report
(** Spawn the topology, run every client to its quota (or the
    duration), join all domains, and aggregate the per-coordinator
    observations. The replicas are quiescent when this returns: all
    write-backs are applied.
    @raise Invalid_argument on nonsensical sizes, an undersized
    [coord_inbox] (below 4 × local clients × replicas × shards), a
    chaos config without a duration, or chaos or durability with
    [shards > 1] (see {!config}). *)

(** {2 Durable file layout}

    Owned here so callers (the chaos harness's durable invariant)
    never hard-code the naming convention. *)

val durable_wal_path : dir:string -> replica:int -> core:int -> string
val durable_snap_path : dir:string -> replica:int -> core:int -> string

val fresh_data_dir : tag:string -> string
(** Create (and return) a unique empty directory under the system temp
    directory — a scratch data dir for one durable run. *)

val read_durable_sources :
  dir:string -> replica:int -> cores:int -> Mk_durable.Recover.source list
(** Read one replica's per-core WAL + snapshot images back, in core
    order, ready for {!Mk_durable.Recover.parse}. Missing files read
    as absent/empty — never raises. *)

val remove_data_dir : dir:string -> n_replicas:int -> cores:int -> unit
(** Best-effort cleanup of a data dir created by {!fresh_data_dir}:
    remove every [r*-c*.wal]/[.snap] and the directory itself. *)

val pp_report : Format.formatter -> report -> unit

val report_json : report -> string
(** One flat JSON object (no histories). *)
