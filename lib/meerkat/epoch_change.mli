(** The message-driven §5.3.1 epoch change of one replica, as a pure
    state machine: at most one change in flight, driven by the
    {!Detector}'s [Start_epoch_change] and by the peers' messages.

    A replica is either the {e initiator} of a change or a {e peer}
    answering one. Both roles first freeze every local core (the
    stores may only be read or rebuilt once each core has acked
    {!core_frozen} at the change's freeze generation). Then:
    + the initiator enters the new epoch, contributes its own records,
      asks every peer for theirs ([Change]), and once it holds reports
      from a majority of distinct replicas {!Epoch.merge}s them,
      installs the result locally, thaws its cores and sends [Install]
      (with a store snapshot to the recovering replicas) until every
      replica acks [Installed];
    + a peer enters the epoch, sends its [Records] to the initiator,
      and installs the merge when it arrives, acks it and thaws.

    Concurrent initiators at the same epoch tie-break to the lowest
    replica id: the higher one turns into its peer under the same
    freeze generation. A change for a newer epoch supersedes the one in
    flight. An [Install] at or below the installed epoch is only
    re-acked, never re-installed; one that arrives before any [Change]
    starts a peer that installs once its cores are frozen.

    Retries go out at rto, 2·rto, 4·rto, …: unfrozen cores are frozen
    again, then an initiator resends [Change] (before the merge) or
    [Install] to the replicas that have not acked, and a peer that
    reported resends its [Records]. At the deadline ([now + give_up_after]
    at the start) an initiator that never merged, and a peer that never
    saw the install, resume at the new epoch with their own records.

    Drivers keep the transport, the clock and the threads: they map
    each emitted {!action} onto their own channels, feed the messages
    back with the [on_*] functions and fire the retries from their
    loops with {!fire_due}. The replica and the merge are reached only
    through the functions in {!ops}; nothing here reads a clock or
    touches a socket. Performing an action must not reenter the machine. *)

type 'dst action =
  | Change of { dst : 'dst; epoch : int }
      (** Ask a peer for its records at [epoch] (the sender initiates). *)
  | Records of { dst : 'dst; epoch : int; records : (int * Replica.record_view) list }
      (** The sender's whole trecord, as [(core, view)] pairs. *)
  | Install of {
      dst : 'dst;
      epoch : int;
      records : (int * Replica.record_view) list;
      store : Replica.store_row list option;
    }  (** The merged trecord, and the store for a recovering replica. *)
  | Installed of { dst : 'dst; epoch : int }  (** Ack an [Install]. *)
  | Freeze of { core : int; gen : int }
      (** Stop core [core] touching the stores; it acks with
          {!core_frozen} at [gen]. *)
  | Thaw of { core : int; gen : int }
      (** Let core [core] run again if its freeze is still [gen]'s. *)
  | Finished of { success : bool; recovering : int list }
      (** An initiator's change ended (or turned into a peer): report
          it with {!Detector.epoch_change_finished}. *)

type ops = {
  handle_epoch_change : epoch:int -> Replica.record_view list option;
  record_views : unit -> (int * Replica.record_view) list;
  handle_epoch_complete :
    epoch:int ->
    records:(int * Replica.record_view) list ->
    store:Replica.store_row list option ->
    unit option;
  store_snapshot : unit -> Replica.store_row list;
  resume : epoch:int -> unit option;
  merge : Epoch.report list -> (int * Replica.record_view) list;
}
(** The local replica's §5.3.1 handlers — {!Replica.handle_epoch_change},
    {!Replica.record_views}, {!Replica.handle_epoch_complete},
    {!Replica.store_snapshot} and {!Replica.resume} applied to it — and
    {!Epoch.merge} at the group's quorum. Passed in, so the machine stays
    transport-pure (lint Z6): the merge's scratch store reaches the
    dynamic lock checker. *)

type 'dst t
(** One replica's machine; ['dst] is the driver's destination type. *)

val create :
  me:int -> n:int -> cores:int -> quorum:Quorum.t -> rto:float -> give_up_after:float ->
  epoch:int -> addr:(int -> 'dst) -> ops -> 'dst t
(** The idle machine of replica [me] of [n], whose [cores] cores all
    freeze for a change. [epoch] is the replica's installed epoch;
    [addr p] is replica [p]'s destination. *)

val start :
  'dst t -> epoch:int -> recovering:int list -> now:float -> into:'dst action Batch.t ->
  unit
(** Initiate the change to [epoch] that readmits [recovering]: freeze
    every core. Ignored while a change is in flight. *)

val on_change :
  'dst t -> initiator:int -> epoch:int -> now:float -> into:'dst action Batch.t -> unit
(** [initiator] asks for this replica's records at [epoch]. *)

val on_records :
  'dst t -> replica:int -> epoch:int -> records:(int * Replica.record_view) list ->
  into:'dst action Batch.t -> unit
(** [replica]'s report; the one completing a majority merges. *)

val on_install :
  'dst t -> src:'dst -> epoch:int -> records:(int * Replica.record_view) list ->
  store:Replica.store_row list option -> now:float -> into:'dst action Batch.t -> unit
(** The merged trecord of [epoch], sent from [src] (where the ack
    goes). *)

val on_installed :
  'dst t -> replica:int -> epoch:int -> into:'dst action Batch.t -> unit
(** [replica] acked the install of [epoch]. *)

val core_frozen : 'dst t -> core:int -> gen:int -> into:'dst action Batch.t -> unit
(** Core [core] acked the freeze at [gen]; stale or out-of-range acks
    are ignored. *)

val fire_due : 'dst t -> now:float -> into:'dst action Batch.t -> unit
(** Past the deadline, end the change; otherwise retry it if its retry
    is due at [now]. *)

val next_due : 'dst t -> float
(** The earliest retry or deadline of the change in flight; [infinity]
    (allocating nothing) when there is none. *)
