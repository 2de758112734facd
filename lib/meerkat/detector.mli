(** The failure detectors (§5.3) as a transport-agnostic state
    machine: heartbeat observations and scan ticks in, recovery
    {!action}s out.

    Like {!Protocol}, this module owns every decision and none of the
    transport. Its driver carries heartbeats between replicas, reports
    each arrival with {!heartbeat_received}, calls {!scan} on each
    replica's scan tick, and performs the returned actions — running
    the §5.3.2 view change or §5.3.1 epoch change and reporting the
    outcome back with {!view_change_finished} /
    {!epoch_change_finished}. The cluster node and the live monitor
    drive it through {!Supervisor}, which owns that schedule and the
    view changes; the simulator drives it from its own engine-scheduled
    loops ([Sim_system.start_detectors]). Every backend therefore makes
    the same suspicion and recovery decisions from the same
    observations.

    One [t] holds the whole deployment's detector state (the n×n
    last-heard and paused matrices, per-observer stuck-record clocks,
    and the shared in-flight recovery guards); nothing here consumes
    randomness or reads a clock — [now] is always an argument. *)

type cfg = {
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

val default_cfg : cfg
(** Tuned to the simulator's µs timescale (heartbeat every 300 µs,
    suspect after 1.5 ms of silence). Live runs scale these to their
    wall-clock horizon. *)

type action =
  | Start_view_change of {
      observer : int;
      record : Mk_storage.Trecord.entry;
      view : int;
          (** The target view, precomputed: the smallest view above the
              record's current one owned by [observer]
              ([view mod n = observer]). *)
    }
      (** Drive the §5.3.2 backup-coordinator view change for this
          stuck record. The transaction is marked in flight; report the
          outcome with {!view_change_finished}. *)
  | Start_epoch_change of { recovering : int list }
      (** Drive the §5.3.1 epoch change reintegrating [recovering].
          Further initiations are suppressed until
          {!epoch_change_finished}. *)

type t

val create : cfg:cfg -> n:int -> now:float -> t
(** Fresh detector state for an [n]-replica deployment; every peer
    counts as heard-from at [now]. *)

val heartbeat_received : t -> now:float -> observer:int -> from_:int -> paused:bool -> unit
(** A heartbeat from [from_], carrying whether the sender reports
    itself paused, was delivered to [observer]. *)

val scan :
  t ->
  now:float ->
  observer:int ->
  paused:bool ->
  available:bool ->
  records:(unit -> Mk_storage.Trecord.entry list) ->
  recoverable:(int -> bool) ->
  into:action Batch.t ->
  unit
(** One scan tick of replica [observer] (drivers skip ticks of crashed
    replicas). Updates the observer's own paused clock, scans its
    trecord for stuck records when [available] (the thunk is only
    forced then), evaluates suspicion, and appends the recovery
    actions to start to [into], in the order they must be performed:
    view changes in record order, then at most one epoch change.
    [recoverable p] says whether suspect [p] could be reintegrated
    right now (a crashed machine only after its reboot time). *)

val epoch_change_finished : t -> now:float -> success:bool -> recovering:int list -> unit
(** The epoch change from {!action.Start_epoch_change} completed.
    Re-arms initiation after the cooldown; on success, grants the
    reintegrated replicas a fresh grace period so stale silence does
    not immediately re-suspect them. *)

val view_change_finished :
  t ->
  now:float ->
  observer:int ->
  tid:Mk_clock.Timestamp.Tid.t ->
  outcome:[ `Finished | `Abandoned ] ->
  unit
(** The view change for [tid] completed ([`Finished]: the record was
    finalized) or gave up ([`Abandoned]: a higher view took over, or
    the retransmission deadline passed — the stuck clock restarts so
    the scanner retries later at a higher view). *)

val view_change_inflight : t -> Mk_clock.Timestamp.Tid.t -> bool
(** Whether a backup coordinator is currently driving [tid]. *)

val suspected : t -> now:float -> observer:int -> int list
(** The peers [observer] currently suspects (heartbeat silence beyond
    [heartbeat_timeout], or self-reported paused beyond
    [pause_timeout]), in replica order. Read-only — drivers use it to
    report detection (the cluster nodes' exit stats) without waiting
    for a recovery action to fire. *)
