(** Generic multi-group transaction driver: {!Xcoord} actions
    translated onto any backend's per-shard group operations.

    Each backend exposes its groups through the four {!GROUP}
    operations the cross-shard protocol needs — the execute-phase
    versioned reads of one group, the global stamp mint, a validation phase run to a
    decision without write-back, and the outcome write-back. The
    functor owns the translation loop and the bookkeeping every
    backend repeats (outcome counting, per-shard committed
    sub-histories, the merged global history for the checker), so the
    sim, the live runtime and the cluster launcher drive the exact
    same coordinator code. Everything here is callback-based and
    time-free: asynchrony, retransmission and timers live inside the
    backend's [GROUP] implementation. *)

module type GROUP = sig
  type t

  val execute_reads :
    t ->
    client:int ->
    keys:int array ->
    (int -> int -> Mk_clock.Timestamp.t -> unit) ->
    unit
  (** The execute-phase versioned GETs of one transaction's {e local}
      keys in this group, in request order (never empty): one call per
      involved group, so a backend may carry them as one request. The
      callback answers each key once, as [k i value wts] for
      [keys.(i)], in any order. *)

  val fresh_txn_stamp :
    t -> client:int -> Mk_clock.Timestamp.Tid.t * Mk_clock.Timestamp.t
  (** Mint a globally unique tid + proposed timestamp. Only ever
      called on shard 0 — one mint per global transaction. *)

  val prepare_txn :
    t ->
    txn:Mk_storage.Txn.t ->
    ts:Mk_clock.Timestamp.t ->
    on_prepared:(bool -> unit) ->
    unit
  (** Validation phase to a decision, {e without} write-back. *)

  val finalize_txn :
    t -> txn:Mk_storage.Txn.t -> ts:Mk_clock.Timestamp.t -> commit:bool -> unit
  (** Broadcast the write-phase outcome. *)
end

module Make (G : GROUP) : sig
  type t

  val create : router:Router.t -> groups:G.t array -> t
  (** Raises [Invalid_argument] unless there is exactly one group per
      router shard. *)

  val router : t -> Router.t
  val shards : t -> int
  val group : t -> int -> G.t

  val submit :
    t ->
    client:int ->
    reads:int array ->
    writes:(int array -> (int * int) array) ->
    on_done:(committed:bool -> unit) ->
    unit
  (** Run one cross-shard transaction: [reads] are global keys;
      [writes] computes the (global key, value) write set from the
      values read (ignore its argument for a one-shot write set).
      [on_done] fires once the global outcome is decided and every
      involved shard's write-back has been issued. *)

  val committed : t -> int
  val aborted : t -> int

  val history : t -> (Mk_storage.Txn.t * Mk_clock.Timestamp.t) list
  (** The committed transactions this driver acknowledged, as one
      global history over global keys (via {!History.merge}) — what
      [Mk_harness.Checker.check] consumes. *)

  val sub_histories :
    t -> (int * (Mk_storage.Txn.t * Mk_clock.Timestamp.t) list) list
  (** The same commits as per-shard sub-histories over local keys
      (ascending by shard) — what a per-shard checker or a test
      fixture wants. *)
end
