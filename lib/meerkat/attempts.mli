(** The client side's table of in-flight {!Protocol} attempts: the
    bookkeeping every backend that runs the commit protocol over its
    own transport would otherwise write by hand (DESIGN.md §13).

    One table belongs to one coordinator thread. It owns:
    - the id-keyed table of in-flight attempts — an id is unique
      across the coordinator's clients {e and} shard groups, so a
      stale reply can never reach a live attempt, and a reply stamped
      with another group than the attempt it names is refused;
    - per-client stamp minting (globally unique tid + strictly
      increasing proposed timestamp, even when the clock stalls);
    - pooled {!Batch} emission — a decision callback may start the
      next attempt reentrantly;
    - the [Retransmit] clamp at [8 x rto];
    - the decision bookkeeping (fast/slow counts, the per-attempt
      decision callback);
    - the protocol timers, with a due check that allocates nothing
      while no timer is due.

    It knows neither a transport nor a clock: the caller passes its
    send functions once, at {!create}, and the time as [~now] on
    every call — so the table is pure (lint Z6) and tests drive it
    with a fake transport and an injected clock. *)

type send = {
  validate :
    shard:int ->
    mask:int ->
    id:int ->
    Mk_storage.Txn.t ->
    Mk_clock.Timestamp.t ->
    unit;
  accept :
    shard:int ->
    mask:int ->
    id:int ->
    Mk_storage.Txn.t ->
    Mk_clock.Timestamp.t ->
    [ `Commit | `Abort ] ->
    unit;
  write_back :
    shard:int ->
    mask:int ->
    Mk_storage.Txn.t ->
    Mk_clock.Timestamp.t ->
    commit:bool ->
    unit;
}
(** One protocol broadcast to the replicas of group [shard] whose bits
    are set in [mask] (bit [r] = replica [r]; never [0]). A retransmitted
    validation names only the replicas that have not answered; accepts
    and write-backs name them all. A transport may carry the broadcast
    as one message or walk the bits in ascending order. Replies must
    come back carrying [id] and the answering group's [shard]. *)

type attempt
(** One per-shard validation attempt: a {!Protocol} run to its
    decision. The write phase is {e not} part of it — that is
    {!finalize}, issued once the caller knows the global outcome. *)

type t

val create : ?on_retransmit:(attempt -> unit) -> Protocol.params -> send:send -> t
(** An empty table. The optional hook observes each [Retransmit]
    expiry that is fed to a live attempt.
    @raise Invalid_argument if the replica set does not fit an [int]
    mask. *)

val mint :
  t -> client:int -> now:float -> Mk_clock.Timestamp.Tid.t * Mk_clock.Timestamp.t
(** The client's next tid (sequence numbers from 1) and proposed
    timestamp at [now] — or, if the clock has not moved past the
    client's previous stamp, [1e-3] after it (1 ns in the drivers'
    microseconds): strictly increasing per client. *)

val last_stamp : t -> client:int -> float
(** The time of the client's latest {!mint}; [0.] before the first. *)

val start :
  t ->
  now:float ->
  shard:int ->
  txn:Mk_storage.Txn.t ->
  ts:Mk_clock.Timestamp.t ->
  on_decided:(bool -> unit) ->
  unit
(** Begin validating [txn] at [ts] in group [shard]: allocate a fresh
    id, send the validation round, arm the retransmission timer.
    [on_decided] runs exactly once, with the group's decision, after
    the attempt has left the table. *)

type reply = Fed | Stale | Misrouted

val reply :
  t -> now:float -> id:int -> shard:int -> Protocol.event -> reply
(** Route one replica reply: [Fed] to the live attempt [id]; [Stale]
    when no live attempt has that id (late or duplicated); [Misrouted]
    — dropped, for the caller to count — when attempt [id] belongs to
    another group than the reply's [shard]. *)

val fire_due : t -> now:float -> unit
(** Feed every armed timer whose deadline is [<= now] to its attempt
    (dropping those of attempts that have decided). Allocation-free
    while {!next_due} is in the future. *)

val next_due : t -> float
(** A lower bound on the earliest armed deadline ([infinity] when no
    timer was ever armed); exact after a {!fire_due} that fired. *)

val resume : t -> now:float -> unit
(** Feed {!Protocol.Resume} once to every attempt in flight, in id
    order: a coordinator back from a crash re-sends whatever each
    attempt still misses. Decided attempts have left the table and are
    not touched. *)

val finalize :
  t ->
  shard:int ->
  txn:Mk_storage.Txn.t ->
  ts:Mk_clock.Timestamp.t ->
  commit:bool ->
  unit
(** Send the write phase ([commit] = the global outcome) to every
    replica of [shard], as one full-mask broadcast. *)

val in_flight : t -> int
val fast : t -> int
(** Attempts decided on the fast path. *)

val slow : t -> int
val rto_cap : t -> float
(** [8 x rto]: the longest retransmission timeout the table arms. *)
