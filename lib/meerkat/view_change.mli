(** The backup-coordinator view change (§5.3.2) as a transport-agnostic
    state machine: the table of in-flight view changes, keyed by tid.

    When the {!Detector} finds a stuck record it emits
    [Start_view_change]; the driver hands it to {!start}. The machine
    then owns every decision of the procedure:
    + gather [Coord_change] replies ([`View_ok]) from a majority of
      distinct replicas, then pick the safe outcome with
      {!Recovery.choose};
    + send [Vc_accept] with that decision at the new view, and count
      [`Accepted] replies from a majority of distinct replicas;
    + write the outcome back everywhere and report [Done].

    A [`Finalized] accept reply short-circuits to its outcome; a
    [`Stale] reply in either phase abandons (a higher view took
    over). A reply counts once per replica, and replies from another
    observer, for another view, or naming a replica outside
    [\[0, n)] are ignored. The pending phase is retransmitted at
    rto, 2·rto, 4·rto, … to the replicas that have not answered, and
    the change is abandoned once a retry (or a {!fire_due} tick) finds
    its deadline passed.

    Drivers keep the transport, the clock and the threads: they
    perform the emitted {!action}s over their own channels (skipping
    replicas they know are down), feed replies back with
    {!coord_reply} / {!accept_reply}, and drive the retries — the
    simulator with one engine event per {!timer} re-arm, the
    wall-clock backends by calling {!fire_due} from their loops.
    Nothing here reads a clock ([now] is an argument) or touches a
    replica. *)

type outcome = [ `Finished | `Abandoned ]

type action =
  | Coord_change of {
      replica : int;
      observer : int;
      tid : Mk_clock.Timestamp.Tid.t;
      view : int;
    }  (** Ask [replica] to join [view] and report its record. *)
  | Vc_accept of {
      replica : int;
      observer : int;
      txn : Mk_storage.Txn.t;
      ts : Mk_clock.Timestamp.t;
      decision : [ `Commit | `Abort ];
      view : int;
    }  (** Ask [replica] to accept [decision] at [view]. *)
  | Write_back of {
      observer : int;
      txn : Mk_storage.Txn.t;
      ts : Mk_clock.Timestamp.t;
      commit : bool;
    }  (** Finalize the record at every replica. *)
  | Done of { tid : Mk_clock.Timestamp.Tid.t; observer : int; outcome : outcome }
      (** The view change left the table: report it with
          {!Detector.view_change_finished}. *)

type t

val create : n:int -> t
(** An empty table for an [n]-replica group. *)

val start :
  t ->
  observer:int ->
  record:Mk_storage.Trecord.entry ->
  view:int ->
  rto:float ->
  deadline:float ->
  now:float ->
  into:action Batch.t ->
  unit
(** Begin the view change [observer] proposes at [view] for [record]'s
    transaction (replacing any change for the same tid — the detector
    allows one at a time): emit [Coord_change] to replicas 0..n-1 and
    arm the first retry at [now + rto]. *)

val coord_reply :
  t ->
  tid:Mk_clock.Timestamp.Tid.t ->
  observer:int ->
  view:int ->
  replica:int ->
  [ `View_ok of Replica.record_view option | `Stale of int ] ->
  into:action Batch.t ->
  unit
(** [replica]'s answer to [Coord_change] at [view]. The reply that
    completes the majority chooses the outcome and emits [Vc_accept]
    to replicas 0..n-1; a [`Stale] one emits [Done `Abandoned].
    Ignored once the outcome is chosen. *)

val accept_reply :
  t ->
  tid:Mk_clock.Timestamp.Tid.t ->
  observer:int ->
  view:int ->
  replica:int ->
  [ `Accepted | `Stale of int | `Finalized of Mk_storage.Txn.status ] ->
  into:action Batch.t ->
  unit
(** [replica]'s answer to [Vc_accept] at [view]. The [`Accepted] that
    completes the majority, or any [`Finalized], emits [Write_back]
    then [Done `Finished]; a [`Stale] one emits [Done `Abandoned].
    Ignored before the outcome is chosen. *)

val timer :
  t -> now:float -> tid:Mk_clock.Timestamp.Tid.t -> into:action Batch.t -> float option
(** Fire [tid]'s retry if it is due at [now]: past the deadline emit
    [Done `Abandoned]; otherwise resend the pending phase to the
    replicas that have not answered, double the rto and return
    [Some rto] — the delay after which the retry is next due. [None]
    when there is nothing to re-arm: no change for [tid], or its retry
    is not due (a timer armed for an earlier change of the same tid). *)

val fire_due : t -> now:float -> into:action Batch.t -> unit
(** Every change whose deadline has passed is abandoned, and every
    other one whose retry is due at [now] is retried, as by {!timer}.
    Allocation-free while {!next_due} is in the future. *)

val next_due : t -> float
(** A lower bound on the earliest retry or deadline of any change in
    the table ([infinity] when none was ever started). *)
