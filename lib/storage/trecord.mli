(** The trecord: per-core-partitioned transaction record (§4.2,
    Fig. 2).

    Every transaction's record lives in exactly one core's partition —
    the core the coordinator steered the transaction to — so in normal
    operation a partition is only ever touched by its own core and no
    cross-core synchronization exists (DAP). Only the epoch-change
    protocol aggregates across partitions, and it runs with normal
    processing paused.

    When [Mk_check.Owner] is enabled, {!find}/{!add}/{!remove} assert
    that the ambient actor (set by the replica handlers with
    [Owner.with_core]) matches the partition touched; the cross-core
    maintenance operations ({!entries}, {!replace_all},
    {!trim_finalized}) run outside any actor scope and are exempt. *)

type entry = {
  txn : Txn.t;
  mutable ts : Mk_clock.Timestamp.t;  (** Proposed commit timestamp. *)
  mutable status : Txn.status;
  mutable view : int;
      (** Highest coordinator view this replica has joined for this
          transaction; 0 is the original coordinator (§5.3.2). *)
  mutable accept_view : int option;
      (** View in which a slow-path proposal was last accepted, if
          any — the Paxos acceptor state. *)
}

type t

val create : cores:int -> t
val cores : t -> int

val partition_of_tid : t -> Mk_clock.Timestamp.Tid.t -> int
(** Default steering rule: hash of the tid. The coordinator uses the
    same rule to pick the core id it steers messages to. *)

val find : t -> core:int -> Mk_clock.Timestamp.Tid.t -> entry option

val mem : t -> core:int -> Mk_clock.Timestamp.Tid.t -> bool
(** [find] without the option: whether the partition holds a record
    for the tid. *)

val add :
  t ->
  core:int ->
  txn:Txn.t ->
  ts:Mk_clock.Timestamp.t ->
  status:Txn.status ->
  entry
(** Insert (or replace) the record for [txn.tid] in [core]'s
    partition with view 0 and no accepted proposal. *)

val remove : t -> core:int -> Mk_clock.Timestamp.Tid.t -> unit
val size : t -> int

val entries : t -> (int * entry) list
(** All records as [(core, entry)] pairs — the cross-core aggregation
    used by epoch change. *)

val core_entries : t -> core:int -> entry list
(** One core's partition only — the snapshot a live server domain
    takes of its own partition for the failure detector (uninstrumented
    like {!entries}; callers copy the entries before crossing
    domains). *)

val core_pending : t -> core:int -> entry list
(** Fresh copies of one core's non-final records — the failure
    detector's feed — without walking the whole untrimmed partition:
    the cost is proportional to the records added since the previous
    call plus those still non-final. Uninstrumented like
    {!core_entries}, but it prunes an index of the partition, so only
    the core that owns the partition may call it. *)

val replace_all : t -> (int * entry) list -> unit
(** Install a merged trecord (epoch-change-complete), preserving the
    per-core partitioning carried in the pairs. *)

val count_status : t -> Txn.status -> int

val trim_finalized : t -> before:Mk_clock.Timestamp.t -> int
(** Drop COMMITTED/ABORTED records with commit timestamps below
    [before], returning how many were removed. The paper trims the
    trecord at epoch changes once a checkpoint covers it; this is the
    steady-state analogue (a coordinator retransmitting a validate for
    a trimmed transaction simply gets it re-validated and aborted by
    the conservative OCC checks, which is safe because the outcome was
    already delivered). Non-final records are never trimmed. *)
