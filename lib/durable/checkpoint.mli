(** When a core checkpoints, and what its checkpoint holds.

    Pure (lint rule Z6): the trigger is arithmetic on byte counts and
    the image is a filter over already-collected views and rows — the
    callers own the files, the clocks and the domains.

    The trigger is the "log outgrew its image" rule (DESIGN.md §12): a
    core writes a new snapshot only once the bytes its WAL has gained
    past the last snapshot's [wal_cut] exceed that snapshot's size.
    Replay at reboot then reads at most about twice the state, each
    appended byte pays a constant amortized share of snapshot writing,
    and a run of [H] transactions writes [O(log H)] snapshots per core
    (the state, and so the threshold, grows with every one). *)

val due : log_len:int -> cut:int -> last_bytes:int -> bool
(** [log_len - cut > last_bytes]: the log suffix a reboot would replay
    has outgrown the last snapshot image ([last_bytes = 0] when there
    is none yet, so the first appended record is due). *)

val image :
  cores:int ->
  core:int ->
  epoch:int ->
  wal_cut:int ->
  views:(int * Mk_meerkat.Replica.record_view) list ->
  rows:Mk_meerkat.Replica.store_row list ->
  Walcodec.snapshot
(** Core [core]'s snapshot: the [views] tagged with [core] and the
    [rows] whose key it owns ([key mod cores = core]), in their given
    order. [views] may be the whole trecord or only this core's
    partition. *)

val images :
  cores:int ->
  epoch:int ->
  wal_cut:(int -> int) ->
  views:(int * Mk_meerkat.Replica.record_view) list ->
  rows:Mk_meerkat.Replica.store_row list ->
  Walcodec.snapshot array
(** Every core's {!image} of one whole-replica state (an epoch install
    or a reboot compaction), element [c] cutting at [wal_cut c]. *)
