(** The failure-handling control plane (§5.3) of one driver, as a pure
    state machine: heartbeats, record reports and replies in, sends and
    recovery requests out.

    A supervisor serves the observers one driver hosts — [[me]] for a
    cluster node, every replica for the live monitor — over one shared
    {!Detector}. It owns:
    + the schedule: heartbeats every [heartbeat_every], a record push
      every half scan, each observer's scan every [scan_every], and the
      retries of the view changes in flight, all fired by {!tick};
    + the detector feed: {!heartbeat} arrivals, each core's non-final
      records ({!records}), and the scans that turn them into suspicion
      and stuck records;
    + each §5.3.2 backup-coordinator view change, from its start (with
      its deadline at [now + give_up_after]) through every
      {!View_change} message and retry to its end, whose outcome it
      reports back to the detector and counts ({!view_changes});
    + the detector's side of the §5.3.1 epoch change: it asks for one
      with [Start_epoch_change] and re-arms once the driver reports
      {!epoch_change_finished}.

    Drivers keep the transport, the clock and the threads. They carry
    the emitted {!action}s over their own channels, report what arrives
    with the feed functions, and call {!tick} from their loops. What a
    driver knows about its replicas reaches the machine through
    {!host}. Nothing here reads a clock ([now] is an argument) or
    touches a replica; actions are appended to the caller's batch. *)

type action =
  | Heartbeat of { from_ : int; dst : int; paused : bool }
      (** Observer [from_]'s periodic heartbeat to replica [dst],
          reporting whether [from_] is paused. *)
  | Push_records
      (** Ask every core for its non-final records; feed the answers
          back with {!records}. *)
  | Coord_change of {
      replica : int;
      observer : int;
      tid : Mk_clock.Timestamp.Tid.t;
      view : int;
    }  (** §5.3.2: ask [replica] to join [view] and report its record. *)
  | Vc_accept of {
      replica : int;
      observer : int;
      txn : Mk_storage.Txn.t;
      ts : Mk_clock.Timestamp.t;
      decision : [ `Commit | `Abort ];
      view : int;
    }  (** §5.3.2: ask [replica] to accept [decision] at [view]. *)
  | Write_back of {
      observer : int;
      txn : Mk_storage.Txn.t;
      ts : Mk_clock.Timestamp.t;
      commit : bool;
    }  (** §5.3.2: finalize the record at every replica. *)
  | Start_epoch_change of { recovering : int list }
      (** §5.3.1: run the epoch change that readmits [recovering], and
          report its end with {!epoch_change_finished}. No other is
          asked for until then. *)

type host = {
  up : int -> bool;
      (** Replica [r] is running: only then does it heartbeat, hear
          heartbeats and scan. *)
  paused : int -> bool;  (** Replica [r] is paused by an epoch change. *)
  available : int -> bool;  (** Replica [r] serves requests. *)
  recoverable : now:float -> int -> bool;
      (** Whether suspect [p] could be readmitted right now — the one
          reboot rule a backend keeps (see {!Detector.scan}). *)
}
(** What the driver knows about its replicas, asked only when a
    heartbeat or a scan is due. *)

type t

val create :
  cfg:Detector.cfg ->
  n:int ->
  cores:int ->
  observers:int list ->
  rto:float ->
  now:float ->
  host ->
  t
(** The supervisor of [observers] (replica ids in [\[0, n)]), each with
    [cores] trecord cores, in an [n]-replica group. Every peer counts
    as heard from at [now]; the first heartbeat and record push are due
    at [now], observer [i]'s first scan half a scan later plus [i]
    shares of a scan (observers scan staggered). View changes retry
    after [rto], doubling. *)

val tick : t -> now:float -> into:action Batch.t -> unit
(** Do whatever is due at [now]: heartbeats, a record push, scans and
    the view changes' retries and deadlines. Allocates nothing when
    nothing is due ([now < next_due t]). *)

val next_due : t -> float
(** When {!tick} next has work. *)

val heartbeat : t -> now:float -> observer:int -> from_:int -> paused:bool -> unit
(** A heartbeat from [from_] reached [observer]. Ignored for an
    observer that is not up, for out-of-range ids and when [from_] is
    [observer]. *)

val records : t -> observer:int -> core:int -> Mk_storage.Trecord.entry list -> unit
(** Core [core] of [observer]'s replica answered a [Push_records] with
    its non-final records; they replace that core's previous answer.
    Out-of-range ids are ignored. *)

val coord_reply :
  t ->
  now:float ->
  tid:Mk_clock.Timestamp.Tid.t ->
  observer:int ->
  view:int ->
  replica:int ->
  [ `View_ok of Replica.record_view option | `Stale of int ] ->
  into:action Batch.t ->
  unit
(** [replica]'s answer to a [Coord_change] (see {!View_change.coord_reply}). *)

val accept_reply :
  t ->
  now:float ->
  tid:Mk_clock.Timestamp.Tid.t ->
  observer:int ->
  view:int ->
  replica:int ->
  [ `Accepted | `Stale of int | `Finalized of Mk_storage.Txn.status ] ->
  into:action Batch.t ->
  unit
(** [replica]'s answer to a [Vc_accept] (see {!View_change.accept_reply}). *)

val epoch_change_finished : t -> now:float -> success:bool -> recovering:int list -> unit
(** The epoch change asked for by [Start_epoch_change], or one this
    driver's replica initiated and then gave up, ended (see
    {!Detector.epoch_change_finished}). *)

val retire : t -> unit
(** Start no more recoveries: scans stop, while heartbeats, record
    pushes and the view changes in flight go on. For a driver winding
    down. *)

val view_changes : t -> int
(** View changes that finished their record so far. *)

val view_change_inflight : t -> Mk_clock.Timestamp.Tid.t -> bool
(** Whether a view change for the transaction is in flight (see
    {!Detector.view_change_inflight}). *)

val suspected : t -> now:float -> observer:int -> int list
(** The peers [observer] suspects now (see {!Detector.suspected}). *)
