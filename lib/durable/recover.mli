(** Crash-reboot recovery: snapshot + log-suffix replay.

    {!parse} is the total decoding half (lint rule Z7: a corrupt data
    directory degrades — longest valid prefix, skipped snapshot —
    never throws); {!apply} is the thin store-mutation half delegating
    to {!Mk_meerkat.Replica.restore}. Replay is idempotent: parsing
    the same images twice yields the same {!parsed}, and applying it
    twice is a no-op thanks to the Thomas write rule. *)

type source = { snap : string option; log : string }
(** One core's raw images: the snapshot file contents (if any) and
    the whole log file ([""] when absent). *)

type parsed = {
  epoch : int;  (** Highest installed epoch across snapshots. *)
  records : (int * Mk_meerkat.Replica.record_view) list;
      (** Merged (core, view) pairs: newest status per (core, tid),
          final statuses never regressed. *)
  rows : Mk_meerkat.Replica.store_row list;
      (** Merged vstore rows, one per key (newest write wins). *)
  replayed : int;  (** Log records replayed past the snapshot cuts. *)
  snapshots_used : int;
  decode_errors : int;
      (** Torn tails, CRC mismatches, misfiled or over-[cores]
          images — everything recovery had to skip. *)
}

val empty : parsed

val parse : cores:int -> source list -> parsed
(** Element [i] of the list is core [i]'s images; entries at or past
    [cores] are counted as decode errors and skipped (they cannot map
    to a trecord partition). Total. *)

val apply : Mk_meerkat.Replica.t -> parsed -> unit
(** Install the parsed state via {!Mk_meerkat.Replica.restore}; the
    caller decides pause/recovery flags around it. *)
