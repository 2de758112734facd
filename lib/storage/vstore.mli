(** The vstore: versioned backing storage shared by all cores of a
    replica (§4.2).

    Each key carries its committed value, the write timestamp [wts] of
    the transaction that installed it, the read timestamp [rts] of the
    latest committed reader, and the pending [readers]/[writers]
    timestamp sets used by Alg. 1. State is partitioned per key —
    there is no structure shared between non-conflicting transactions,
    which is what DAP demands.

    Every entry has its own mutex, so the same implementation serves
    both the (single-threaded, deterministic) simulator and the
    real-parallelism layer in [Mk_multicore], where OCaml domains
    genuinely race on entries.

    Keys are found through an immutable key index published through
    one [Atomic]: a lookup of a key the index holds takes no lock at
    all, so two transactions with disjoint keys share nothing on any
    domain (ZCP, §3). The index is built once the keys are loaded
    ({!publish}); a miss — a key it lacks — takes the one table lock
    and answers from the tables, which stay the store of record and
    fix {!iter}'s order.

    Lock discipline (enforced by [bin/mk_lint.exe] rule Z3 statically
    and by [Mk_check.Owner] dynamically): table operations run under
    the table lock; entry field mutations run under the entry lock —
    {!lock}/{!unlock} or {!with_entry} — through the [set_*]
    mutators. *)

type entry = {
  key : Txn.key;
  lock : Mutex.t;  (** The paper's fine-grained per-key lock. *)
  owner : Mk_check.Owner.slot;
      (** Dynamic-checker shadow of [lock]; maintained by
          {!with_entry}. *)
  mutable value : Txn.value;
  mutable wts : Mk_clock.Timestamp.t;
  mutable rts : Mk_clock.Timestamp.t;
  mutable readers : Mk_clock.Timestamp.Set.t;
      (** Pending validated readers (uncommitted). *)
  mutable writers : Mk_clock.Timestamp.Set.t;
      (** Pending validated writers (uncommitted). *)
}

type t

val create : ?shards:int -> unit -> t
(** [shards] must be a power of two (default 64). *)

val load : t -> key:Txn.key -> value:Txn.value -> unit
(** Pre-load a key with the initial version (timestamp zero), as the
    paper loads the database before each run. Replaces any previous
    entry. Does not republish the index: a bulk load ends with one
    {!publish}. *)

val publish : t -> unit
(** Build the key index over every stored entry and publish it, once
    per bulk path (a load loop, a restore, a fresh store): from then
    on those keys are found with no lock. A no-op when the index is
    current. *)

val lookup : t -> Txn.key -> entry
(** {!find} without the option: the key's entry, or {!absent} if the
    key was never stored. Lock-free and allocation-free for a key in
    the index; a miss asks the tables as {!find_or_create} does. *)

val absent : entry
(** The entry of no key ({!lookup}'s miss); never lock or mutate it. *)

val find : t -> Txn.key -> entry option
val find_exn : t -> Txn.key -> entry

val find_or_create : t -> Txn.key -> entry
(** The key's entry, created with the zero version for a blind write
    to a key never loaded. Lock-free for a key in the index; a miss
    takes the table lock, and republishes the index once it lags the
    tables by more than an eighth of its size (so creating keys one
    by one costs O(1) amortized). Thread-safe: racing creators of one
    key get the same entry. *)

val set_version :
  t ->
  key:Txn.key ->
  value:Txn.value ->
  wts:Mk_clock.Timestamp.t ->
  rts:Mk_clock.Timestamp.t ->
  unit
(** Set the key's committed version (creating the entry if need be),
    without republishing the index: a state-transfer row, one of a
    bulk that ends with one {!publish}. *)

val size : t -> int

val lock : entry -> unit
(** Take the entry lock (and tell the dynamic checker): the
    closure-free form of {!with_entry} for the OCC hot path. Every
    exit path must {!unlock}. *)

val unlock : entry -> unit

val with_entry : entry -> (entry -> 'a) -> 'a
(** Run [f] with the entry lock held (and the dynamic checker told).
    All reads of related fields that must be consistent, and every
    mutation, belong inside. *)

val set_value : entry -> Txn.value -> unit
val set_wts : entry -> Mk_clock.Timestamp.t -> unit
val set_rts : entry -> Mk_clock.Timestamp.t -> unit
val set_readers : entry -> Mk_clock.Timestamp.Set.t -> unit

val set_writers : entry -> Mk_clock.Timestamp.Set.t -> unit
(** The [set_*] mutators assert (when [Mk_check.Owner] is enabled)
    that the caller holds the entry lock, i.e. runs inside
    {!with_entry}. *)

val read_versioned : entry -> Txn.value * Mk_clock.Timestamp.t
(** Atomically snapshot (value, wts) under the entry lock — the GET
    handler. *)

val iter : t -> (entry -> unit) -> unit
(** Iterates the tables under the table lock, in an order fixed by
    the sequence of loads and creations alone (checkpoint images
    depend on it). [f] may take entry locks (table → entry is the
    global lock order) but must not touch the store's tables. *)

val clear_pending : t -> unit
(** Empty every entry's pending reader/writer sets. Used when an epoch
    change finishes: all in-flight transactions of the old epoch have
    been decided, so marks left behind by non-participant replicas are
    stale and would otherwise block future validations forever. *)

val pending_counts : t -> int * int
(** Totals of pending (readers, writers) across all entries; test and
    invariant-checking helper. *)

(** Deliberately broken access paths for exercising the dynamic
    checker; never called by production code. *)
module For_testing : sig
  val unguarded_find : t -> Txn.key -> entry option
  (** The pre-fix shape of {!find}: a table read with no lock. Raises
      [Mk_check.Owner.Violation] when the checker is enabled — the
      regression demonstration for the original race. *)

  val unguarded_bump_rts : entry -> Mk_clock.Timestamp.t -> unit
  (** An entry mutation outside {!with_entry}; caught the same way. *)

  val index_size : t -> int
  (** Entries in the published index. *)

  val holding_table_lock : t -> (unit -> 'a) -> 'a
  (** Run [f] with the table lock held: a lookup inside that takes the
      lock fails with [Sys_error] (OCaml 5 mutexes refuse a relock by
      their holder). *)
end
