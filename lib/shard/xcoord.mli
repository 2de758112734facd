(** Transport-agnostic cross-shard transaction coordinator
    (DESIGN.md §13, paper §5.2.4).

    One value of type {!t} is the state machine of a single
    cross-shard commit attempt, in the action-list style of
    {!Mk_meerkat.Protocol}: it consumes shard replies and emits the
    {!action}s a driver must perform — read each involved shard's
    keys from it, mint the global stamp, run the validation phase in every
    involved shard in parallel, then write back everywhere with the
    global outcome. It knows nothing about transports or time: the
    sim drives it over simulated groups, the live runtime over
    mailboxes, the cluster launcher over UDP, and the machine cannot
    drift between them.

    The commit argument is the zero-coordination one: timestamps are
    already globally unique (client-chosen (time, client_id) pairs),
    so each shard's existing validate/accept decision doubles as its
    2PC vote — the global outcome is simply the conjunction of the
    per-shard decisions, and no new coordination state is introduced.
    A shard that aborts its sub-transaction forces every involved
    shard to abort (write-back with [commit = false]), which is
    exactly the atomic-commitment contract.

    Per-shard retransmission, crash recovery of a stuck shard-level
    attempt, and timer management all live {e below} this machine, in
    the per-shard commit protocol — a shard's vote arrives exactly
    once, whenever its group decides. The machine is therefore
    timer-free, which is also what keeps it trivially pure (lint Z6). *)

type action =
  | Read of { shard : int; keys : int array; index : int array option }
      (** Execute-phase reads of [shard]'s local [keys], one action
          per involved shard: shards in the order they first appear
          in the request, keys in request order. The answer for
          [keys.(i)] is {!read_done} with [~index:index.(i)], its
          position in the request. All reads are issued at once —
          owning shards serve them in parallel. With one shard the
          batch is the request's own key array (local keys are the
          global keys) and [index] is [None]: answer [i] is read [i].
          Neither array may be mutated. *)
  | Need_stamp
      (** Every read value is in hand: the driver must mint the global
          tid + timestamp (one per transaction, shared by every
          sub-transaction) and compute the write set, then answer with
          [Stamped]. Emitted exactly once. *)
  | Prepare of { shard : int; txn : Mk_storage.Txn.t; ts : Mk_clock.Timestamp.t }
      (** Run the validation phase for this sub-transaction (local
          keys) in [shard], {e without} writing back; answer with
          [Prepared] carrying the shard's decision. *)
  | Finalize of {
      shard : int;
      txn : Mk_storage.Txn.t;
      ts : Mk_clock.Timestamp.t;
      commit : bool;
    }
      (** Write the global outcome back in [shard] (commit = the
          conjunction of every involved shard's vote). *)
  | Done of { committed : bool; involved : int list }
      (** The global outcome is known and every [Finalize] has been
          emitted — report to the application. Emitted exactly once. *)

type event =
  | Stamped of {
      tid : Mk_clock.Timestamp.Tid.t;
      ts : Mk_clock.Timestamp.t;
      writes : (int * int) array;  (** (global key, value) pairs. *)
    }
  | Prepared of { shard : int; commit : bool }
      (** A shard's validation decision. Duplicates (same shard) are
          ignored, so a retransmitting transport cannot double-count
          the vote conjunction. *)

type t

val start : router:Router.t -> reads:int array -> t * action list
(** Begin a cross-shard attempt reading the given global keys:
    returns the machine and the initial actions (one [Read] per
    involved shard, or [Need_stamp] immediately when there are no
    reads). *)

val read_done :
  t -> index:int -> value:int -> wts:Mk_clock.Timestamp.t -> action list
(** Feed the answer to read [index] of the request (its position in
    [reads]); returns [[Need_stamp]] once every read is in, else [[]].
    Out-of-range, duplicate and late answers are ignored. *)

val handle : t -> event -> action list
(** Feed one event; returns the actions to perform, in order. Events
    that no longer apply (votes after the decision) are ignored. *)

(** {2 Introspection (used by drivers and tests)} *)

val values : t -> int array
(** The values the execute phase read, in request order — what an
    interactive transaction's write computation consumes. Only
    meaningful once [Need_stamp] has been emitted. The machine's own
    array, not a copy: read it, never mutate it. *)

val decided : t -> bool
val committed : t -> bool
(** Global outcome; only meaningful once {!decided}. *)

val involved : t -> int list
(** Involved shards, ascending; empty before [Stamped]. *)
