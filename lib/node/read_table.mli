(** The cluster client's outstanding execute-phase reads: one entry
    per read batch — the keys one transaction reads in one group, sent
    as one [Reads] frame to one replica (DESIGN.md §11).

    One table belongs to one coordinator thread. It owns the batch
    ids, the replica each batch is waiting on, and one retry deadline
    per batch: on silence past its timeout a batch rotates, whole, to
    the next replica of its group and is resent, with the timeout
    doubled up to a cap (UDP loss, a busy node and a dead one all look
    the same — the paper's closest-replica read with failover). A
    batch above {!max_keys} keys is split into several entries, so no
    reply can outgrow one datagram. Like {!Mk_meerkat.Attempts} it
    knows no transport and no clock: the caller passes the send
    function once, at {!create}, and the time as [~now]. *)

type send = shard:int -> replica:int -> rid:int -> int array -> unit
(** Send one [Reads] frame for batch [rid]: these local [keys] of
    group [shard], to its replica [replica]. *)

type t

val max_keys : int
(** The most keys one frame asks for (1 024): a [Read_replies] frame
    for them is about 24 KiB, well inside one UDP datagram. *)

val create : n:int -> rto:float -> rto_cap:float -> send:send -> t
(** An empty table over groups of [n] replicas. [rto] is a batch's
    first retry timeout, doubled on each retry up to [rto_cap].
    @raise Invalid_argument if [n] is below 1. *)

val issue :
  t ->
  now:float ->
  shard:int ->
  target:int ->
  keys:int array ->
  (int -> int -> Mk_clock.Timestamp.t -> unit) ->
  unit
(** Read [keys] (local keys of group [shard]) from replica [target]
    (taken mod [n]): send one frame per {!max_keys} keys and arm each
    one's retry at [now + rto]. [k i value wts] answers [keys.(i)],
    once per key. *)

type reply =
  | Fed  (** Taken: the batch's keys were answered and it left the table. *)
  | Stale  (** No batch has that id (a late or duplicated reply). *)
  | Misrouted  (** The batch belongs to another group than the reply's. *)
  | Malformed
      (** The reply does not carry one value and one [wts] per key
          of the batch. *)

val reply :
  t ->
  rid:int ->
  shard:int ->
  values:int array ->
  wts:Mk_clock.Timestamp.t array ->
  reply
(** Route one [Read_replies]. Only [Fed] runs the batch's callbacks,
    after the batch has left the table; the caller counts [Misrouted]
    and [Malformed] drops. *)

val reply_with :
  t ->
  rid:int ->
  shard:int ->
  n_values:int ->
  n_wts:int ->
  's ->
  value:('s -> int -> int) ->
  wts:('s -> int -> Mk_clock.Timestamp.t) ->
  reply
(** {!reply} for a reply read by index, [n_values] values and [n_wts]
    stamps: [value src i] and [wts src i] answer key [i]. The client
    feeds a [Read_replies] frame through it straight from the receive
    cursor ({!Mk_wire.Codec.replies}), building no arrays. *)

val retry_due : t -> now:float -> int
(** Rotate every batch whose deadline is [<= now] to the next replica
    of its group and resend it; returns how many were resent.
    Allocation-free while {!next_due} is in the future. *)

val next_due : t -> float
(** A lower bound on the earliest retry deadline ([infinity] when no
    batch is outstanding); exact after a {!retry_due} that resent. *)

val in_flight : t -> int
(** Batches (frames) awaiting a reply. *)
