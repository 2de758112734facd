(** A Meerkat replica: one instance of the multicore transactional
    database (§4.1) — versioned storage + concurrency control +
    replication record.

    This module is pure protocol logic: handlers take requests and
    return replies, with no knowledge of the simulator. The simulation
    wiring (cores, network, CPU costs) lives in {!Sim_system}; tests
    drive handlers directly; the real-parallelism layer reuses the
    same logic from OCaml domains.

    A handler returns [None] when the replica cannot respond — it has
    crashed, or has paused transaction processing for an epoch change
    (§5.3.1). Coordinators handle this with retransmission, exactly as
    the paper's footnote prescribes. *)

type t

(** Immutable snapshot of a trecord entry, exchanged by the recovery
    protocols (records themselves are never shared between replicas). *)
type record_view = {
  txn : Mk_storage.Txn.t;
  ts : Mk_clock.Timestamp.t;
  status : Mk_storage.Txn.status;
  view : int;
  accept_view : int option;
}

(** One versioned key of the store: the row a state transfer
    ({!store_snapshot}), a snapshot file and a reboot restore carry. *)
type store_row = {
  key : int;
  value : int;
  wts : Mk_clock.Timestamp.t;
  rts : Mk_clock.Timestamp.t;
}

(** What a durability layer must persist: every record finalization
    (the paper's acked commits/aborts — the WAL append) and every
    completed epoch install (the snapshot point: the merged state
    supersedes anything this replica's own log says). *)
type durable_event =
  | Finalized of { core : int; view : record_view }
  | Installed of { epoch : int }

val create : id:int -> quorum:Quorum.t -> cores:int -> t
val id : t -> int
val cores : t -> int
val quorum : t -> Quorum.t
val vstore : t -> Mk_storage.Vstore.t
val trecord : t -> Mk_storage.Trecord.t
val epoch : t -> int

val is_available : t -> bool
(** Neither crashed nor paused for an epoch change. *)

val load : t -> key:int -> value:int -> unit
(** Pre-load one key; see {!Mk_storage.Vstore.load}. A load loop ends
    with one {!publish}. *)

val publish : t -> unit
(** Publish the store's key index after a bulk load, so every loaded
    key is found with no lock from then on
    ({!Mk_storage.Vstore.publish}). *)

(** {2 Failure injection} *)

val crash : t -> unit
(** Fail-stop: lose all state; every handler returns [None] until the
    epoch-change protocol re-integrates the replica. *)

val is_crashed : t -> bool

val is_paused : t -> bool
(** Up but not processing transactions (mid epoch change). Heartbeats
    report this so the failure detector can tell a stuck epoch change
    from a crash. *)

val begin_recovery : t -> unit
(** Restart after a crash with empty state: the replica is up (it can
    take part in the epoch change that will rebuild it) but does not
    process transactions until {!install_epoch} completes. *)

(** {2 Durability} *)

val set_durable_hook : t -> (durable_event -> unit) -> unit
(** Install the persistence callback (default: none, and then no
    event is even built — a finalization on a replica without a hook
    allocates no record view). [Finalized
    {core; _}] fires inside core [core]'s handler — same domain
    affinity as the trecord partition, so a per-core log behind the
    hook has a single writer; [Installed _] fires only from the
    epoch-change driver while the replica is paused. *)

val restore :
  t ->
  epoch:int ->
  records:(int * record_view) list ->
  rows:store_row list ->
  unit
(** Reboot-time restore from stable storage: install the vstore [rows],
    adopt [records] (non-final views are kept verbatim), re-apply
    committed writes (idempotent under the Thomas write rule), and
    raise [epoch]/installed-epoch watermarks. Works at any epoch —
    including 0, where {!handle_epoch_complete}'s duplicate-install
    guard would wrongly no-op — and deliberately leaves the
    crash/pause flags alone: call {!begin_recovery} around it and let
    the §5.3.1 merge unpause the replica. *)

(** {2 Normal-case handlers (§5.2)} *)

val handle_get : t -> key:int -> (int * Mk_clock.Timestamp.t) option
(** Versioned read for the execute phase. *)

val read_into :
  t ->
  's ->
  key:('s -> int -> int) ->
  values:int array ->
  wts:Mk_clock.Timestamp.t array ->
  bool
(** {!handle_get} for a batch of [n = Array.length values] keys, into
    the caller's arrays: [values.(i)] and [wts.(i)] get the version of
    key [key src i]. [false] (and the arrays unspecified) when the
    replica answers no read at all — paused or crashed. Allocates
    nothing.
    @raise Invalid_argument if the two lengths differ. *)

val handle_validate :
  t ->
  core:int ->
  txn:Mk_storage.Txn.t ->
  ts:Mk_clock.Timestamp.t ->
  Mk_storage.Txn.status option
(** Create the trecord entry and run Alg. 1 at timestamp [ts].
    Retransmission-safe: if the record exists, its current status is
    returned without re-validating. *)

val handle_accept :
  t ->
  core:int ->
  txn:Mk_storage.Txn.t ->
  ts:Mk_clock.Timestamp.t ->
  decision:[ `Commit | `Abort ] ->
  view:int ->
  [ `Accepted | `Stale of int | `Finalized of Mk_storage.Txn.status ] option
(** Slow-path accept (Paxos phase 2a): adopt the proposal unless this
    replica has joined a higher view for the transaction ([`Stale]) or
    already knows the final outcome ([`Finalized]). Carries the
    transaction so a replica that missed validation can still record
    the decision. *)

val handle_commit :
  t ->
  core:int ->
  txn:Mk_storage.Txn.t ->
  ts:Mk_clock.Timestamp.t ->
  commit:bool ->
  unit option
(** Write phase (§5.2.3): finalize the record and, on commit, install
    the writes (Thomas write rule) and advance read timestamps.
    Idempotent. *)

val handle_commit_held :
  t -> core:int -> tid:Mk_clock.Timestamp.Tid.t -> commit:bool -> bool
(** {!handle_commit} for a write-back whose record [core] already
    holds, named by its tid alone: [true] if it was handled (the
    record is held, or the replica is crashed and ignores it), [false]
    if the record is missing and {!handle_commit} must be called with
    the transaction. *)

(** {2 Coordinator-recovery handlers (§5.3.2)} *)

val handle_coord_change :
  t ->
  core:int ->
  tid:Mk_clock.Timestamp.Tid.t ->
  view:int ->
  [ `View_ok of record_view option | `Stale of int ] option
(** Paxos-prepare analogue: join [view] (refusing proposals from lower
    views) and report this replica's record state, or [`Stale] if a
    higher view was already joined. [`View_ok None] means this replica
    has no record of the transaction. *)

(** {2 Epoch-change handlers (§5.3.1)} *)

val handle_epoch_change : t -> epoch:int -> record_view list option
(** Enter [epoch] (pausing new validations) and return the aggregated
    trecord; [None] if crashed or [epoch] is not newer. *)

val handle_epoch_complete :
  t ->
  epoch:int ->
  records:(int * record_view) list ->
  store:store_row list option ->
  unit option
(** Adopt the merged trecord (pairs of core id and record), apply every
    committed transaction it contains, optionally restore a vstore
    snapshot first (for a replica recovering from scratch), and resume
    processing. *)

val resume : t -> epoch:int -> unit option
(** Abandon an epoch change at [epoch] that never produced a merge:
    resume processing with this replica's own trecord, non-final
    records included, installing nothing. [None] (the replica stays
    paused) if it is crashed, if [epoch] is not its current epoch (a
    newer change superseded this one), or if it is rebuilding after a
    crash ({!begin_recovery}) — such a replica may only be readmitted
    by a merge. *)

val store_snapshot : t -> store_row list
(** Every key's row, for state transfer to a recovering replica and
    for checkpoint images. *)

val record_views : t -> (int * record_view) list
(** Snapshot of the whole trecord as [(core, view)] pairs. *)

val core_record_views : t -> core:int -> (int * record_view) list
(** {!record_views} of core [core]'s partition alone. *)

val trim_record : t -> before:Mk_clock.Timestamp.t -> int
(** Checkpoint-style trecord truncation (see
    {!Mk_storage.Trecord.trim_finalized}); keeps the record bounded in
    long runs. *)

(** {2 Introspection}

    Totals summed over per-core counter rows. Each core maintains its
    own padded row (written only from that core's handlers, so the
    live runtime needs no atomics on them); sums are exact whenever no
    handler is mid-flight. *)

val validations_ok : t -> int
val validations_abort : t -> int
val committed : t -> int
val aborted : t -> int
