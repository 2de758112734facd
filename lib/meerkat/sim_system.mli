(** The simulated Meerkat deployment: n replicas × k cores over the
    modelled transport, driven by per-client transaction coordinators
    (§5.2).

    Implements {!Mk_model.System_intf.SYSTEM}. The coordinator runs
    the full commit protocol: execute-phase reads against arbitrary
    replicas, client-chosen timestamps from a loosely synchronized
    clock, RSS core steering, fast-path supermajority decisions,
    slow-path accept rounds, asynchronous write-phase messages, and
    retransmission on timeout. *)

type t

type config = Mk_cluster.Cluster.config = {
  n_replicas : int;  (** Odd; n = 2f+1. *)
  threads : int;  (** Server threads (cores) per replica. *)
  n_clients : int;
  keys : int;  (** Keyspace size, preloaded before the run. *)
  transport : Mk_net.Transport.t;
  costs : Mk_model.Costs.t;
  clock_offset : float;  (** Max clock offset across clients, µs. *)
  clock_drift : float;
  seed : int;
}

val default_config : config

val create : ?obs:Mk_obs.Obs.t -> Mk_sim.Engine.t -> config -> t
(** [?obs] injects the observability handle (see
    {!Mk_cluster.Cluster.create}); defaults to a fresh one with
    tracing off. *)

val engine : t -> Mk_sim.Engine.t
val config : t -> config
val replicas : t -> Replica.t array
val name : t -> string
val threads : t -> int

val submit :
  t ->
  client:int ->
  Mk_model.System_intf.txn_request ->
  on_done:(committed:bool -> unit) ->
  unit

val obs : t -> Mk_obs.Obs.t
val counters : t -> Mk_model.System_intf.counters

val network : t -> Mk_net.Network.t
(** The simulated network the system sends through — where a nemesis
    installs its per-link fault rules. *)

val submit_interactive :
  t ->
  client:int ->
  reads:int array ->
  compute:(int array -> (int * int) array) ->
  on_done:(committed:bool -> unit) ->
  unit
(** Interactive transaction whose writes depend on the values read:
    the execute phase fetches the versioned values, [compute] derives
    the write set from them, and OCC validation guarantees that a
    commit implies the writes were computed from the latest committed
    state as of the transaction's timestamp. [compute] returning [||]
    makes the transaction read-only. *)

(** {2 Multi-partition building blocks (§5.2.4)}

    A distributed transaction runs its validation phase in every
    involved partition (each partition being one replicated Meerkat
    group) in parallel and commits only if all of them validate; these
    entry points let the multi-shard driver ([Mk_shard.Driver], as
    instantiated by [Mk_systems.Sharded_sim]) drive that. *)

val fresh_txn_stamp :
  t -> client:int -> Mk_clock.Timestamp.Tid.t * Mk_clock.Timestamp.t
(** Mint a globally unique tid and proposed timestamp from the
    client's loosely synchronized clock. *)

val execute_reads :
  t ->
  client:int ->
  keys:int array ->
  (int -> int -> Mk_clock.Timestamp.t -> unit) ->
  unit
(** The execute-phase versioned GETs of [keys] (with retransmission),
    one simulated GET per key, issued in key order; [k i value wts]
    answers [keys.(i)]. *)

val prepare_txn :
  t ->
  txn:Mk_storage.Txn.t ->
  ts:Mk_clock.Timestamp.t ->
  on_prepared:(bool -> unit) ->
  unit
(** Run the validation phase (fast/slow path included) to a decision
    but do {e not} send write-phase messages: the multi-partition
    coordinator combines the per-partition outcomes first. *)

val finalize_txn :
  t -> txn:Mk_storage.Txn.t -> ts:Mk_clock.Timestamp.t -> commit:bool -> unit
(** Broadcast the write-phase outcome to all replicas of this
    partition. *)

val read_committed : t -> replica:int -> key:int -> int option
(** Directly read a replica's committed value (test helper, bypasses
    the protocol). *)

val crash_replica : ?down_for:float -> t -> int -> unit
(** Fail-stop a replica mid-run; in-flight coordinators fall back to
    the slow path or stall on retransmission, as in the paper.
    [down_for] (µs, default 0) is how long the machine takes to
    reboot: the failure detector will not try to reintegrate the
    replica before that. *)

val crash_coordinator : t -> client:int -> down_for:float -> unit
(** Kill a client-side transaction coordinator mid-protocol (between
    validate and write): its in-flight attempts freeze — replies are
    ignored and retransmission timers skip — leaving VALIDATED records
    stranded on the replicas until the stuck-record detector finishes
    them through the §5.3.2 view change. After [down_for] µs the
    coordinator restarts and resumes its attempts, learning
    already-finalized outcomes through retransmission. If [client] has
    no attempt in flight, a coordinator that does is chosen instead
    (crashing an idle client exercises nothing). *)

val run_epoch_change : t -> recovering:int list -> bool
(** Run the §5.3.1 epoch-change protocol synchronously (outside the
    simulated data path): pause replicas, aggregate and merge
    trecords, install the merged record everywhere, transfer state to
    the [recovering] replicas, and resume. Returns false if no
    majority of replicas is up. Convenient for tests; the in-protocol
    version is {!trigger_epoch_change}. *)

val trigger_epoch_change :
  ?max_rto:float ->
  t ->
  recovering:int list ->
  on_complete:(success:bool -> unit) ->
  unit
(** The message-driven epoch change (§5.3.1), running through the
    simulated network and paying CPU costs: the recovery coordinator —
    the (epoch mod n)th healthy replica — broadcasts
    ⟨epoch-change, e⟩, collects trecords from a majority (paying a
    per-record aggregation cost), merges them, and broadcasts
    ⟨epoch-change-complete, e, trecord⟩, with a store snapshot for
    each recovering replica. Messages are retransmitted on timeout;
    transactions validated mid-change are refused and retried by their
    coordinators, which is the paper's brief pause of new
    validations. [on_complete ~success:false] fires when no majority
    of replicas is up. [max_rto] (default: unbounded) caps the
    retransmission backoff: when the timeout exceeds it, the change
    gives up — reporting success if a majority installed (stragglers
    stay paused until a later epoch change reintegrates them). *)

(** {2 Failure detectors (detector-driven recovery)}

    The detection logic itself lives in {!Detector} (transport-agnostic,
    shared with the live runtime); this system only schedules its
    ticks, carries its heartbeats, and performs its actions. *)

type detector_cfg = Detector.cfg = {
  heartbeat_every : float;  (** Replica-to-replica heartbeat period, µs. *)
  heartbeat_timeout : float;
      (** Silence after which a peer is suspected (crash/partition). *)
  pause_timeout : float;
      (** How long a peer may report itself paused before the detector
          reintegrates it (a stranded epoch change). *)
  stuck_timeout : float;
      (** Age after which a non-final trecord entry is considered
          abandoned by its coordinator and a view change starts. *)
  scan_every : float;  (** Trecord scan / suspicion evaluation period. *)
  epoch_cooldown : float;
      (** Minimum gap between detector-initiated epoch changes. *)
  give_up_after : float;
      (** Retransmission bound for detector-driven recovery rounds. *)
}

val default_detector_cfg : detector_cfg

val start_detectors : ?cfg:detector_cfg -> t -> until:float -> unit -> unit
(** Arm the in-system failure detectors until simulated time [until]:
    per-replica heartbeats over the real (faulty) network feeding
    {!Detector}, whose actions drive §5.3.1 epoch changes and §5.3.2
    view changes (through {!View_change}) for transactions whose
    coordinator died. No recurring event is scheduled past [until], so
    [Engine.run] terminates. *)

val server_busy_fraction : t -> float
(** Mean utilization of server cores since the start of the run. *)
