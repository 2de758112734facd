(* Crash-reboot recovery: fold a replica's per-core snapshot + log
   images back into one consistent (records, rows, epoch) state.

   Split deliberately in two:

   - [parse] is pure decoding and merging — total (lint rule Z7: a
     corrupt data directory must degrade, never throw) and touches no
     replica state;
   - [apply] hands the parsed state to [Replica.restore], which does
     the store writes (and is governed by the storage layer's own
     rules, not Z7).

   Merging follows the snapshot-supersedes-prefix protocol: a core's
   snapshot carries a [wal_cut] token, only the log suffix past the
   cut replays on top, and within one (core, tid) the newest view
   wins except that a final status never regresses to a non-final one
   (a stale in-flight view snapshotted mid-traffic cannot undo a
   commit the log already holds). *)

module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid
module Txn = Mk_storage.Txn
module Replica = Mk_meerkat.Replica

type source = { snap : string option; log : string }

type parsed = {
  epoch : int;
  records : (int * Replica.record_view) list;
  rows : Replica.store_row list;
  replayed : int;
  snapshots_used : int;
  decode_errors : int;
}

let empty =
  {
    epoch = 0;
    records = [];
    rows = [];
    replayed = 0;
    snapshots_used = 0;
    decode_errors = 0;
  }

(* Newest view per (core, tid), final statuses never regressing.
   [tagged] is (core, replay-index, view) with the index increasing in
   replay order (snapshot first, then log suffix); a stable sort keeps
   that order within each (core, tid) group. *)
let merge_records tagged =
  let cmp (c1, i1, (v1 : Replica.record_view)) (c2, i2, (v2 : Replica.record_view))
      =
    match compare (c1 : int) c2 with
    | 0 -> (
        match Tid.compare v1.txn.Txn.tid v2.txn.Txn.tid with
        | 0 -> compare (i1 : int) i2
        | n -> n)
    | n -> n
  in
  let sorted = List.stable_sort cmp tagged in
  List.rev
    (List.fold_left
       (fun acc (core, _, (v : Replica.record_view)) ->
         match acc with
         | (pc, (pv : Replica.record_view)) :: rest
           when pc = core && Tid.equal pv.txn.Txn.tid v.txn.Txn.tid ->
             let keep =
               if Txn.is_final pv.status && not (Txn.is_final v.status) then pv
               else v
             in
             (pc, keep) :: rest
         | _ -> (core, v) :: acc)
       [] sorted)

(* One row per key: value and write timestamp from the newest-written
   row, read timestamp the maximum seen (conservative for OCC). *)
let merge_rows rows =
  let cmp (a : Replica.store_row) (b : Replica.store_row) = Int.compare a.key b.key in
  let sorted = List.stable_sort cmp rows in
  List.rev
    (List.fold_left
       (fun acc (row : Replica.store_row) ->
         match acc with
         | (prev : Replica.store_row) :: rest when prev.key = row.key ->
             let newer = Timestamp.compare row.wts prev.wts > 0 in
             let rts = if Timestamp.compare row.rts prev.rts > 0 then row.rts else prev.rts in
             { (if newer then row else prev) with rts } :: rest
         | _ -> row :: acc)
       [] sorted)

let parse ~cores sources =
  let tagged = ref [] in
  let rows = ref [] in
  let idx = ref 0 in
  let tag core v =
    tagged := (core, !idx, v) :: !tagged;
    incr idx
  in
  let acc = ref empty in
  List.iteri
    (fun core { snap; log } ->
      if core >= cores then
        (* A data directory claiming more cores than the node runs:
           the extra images cannot map to a trecord partition. *)
        acc := { !acc with decode_errors = !acc.decode_errors + 1 }
      else begin
        let cut =
          match snap with
          | None -> 0
          | Some raw -> (
              match Walcodec.read_snapshot raw with
              | Some s when s.core = core ->
                  acc :=
                    {
                      !acc with
                      epoch = max !acc.epoch s.epoch;
                      snapshots_used = !acc.snapshots_used + 1;
                    };
                  List.iter (tag core) s.views;
                  rows := List.rev_append s.rows !rows;
                  s.wal_cut
              | Some _ | None ->
                  (* Corrupt, or a file moved between core slots:
                     ignore it and replay the full log instead. *)
                  acc := { !acc with decode_errors = !acc.decode_errors + 1 };
                  0)
        in
        let replay = Walcodec.read_records ~from:cut log in
        acc :=
          { !acc with decode_errors = !acc.decode_errors + replay.decode_errors };
        List.iter
          (fun (r : Walcodec.record) ->
            if r.core = core then begin
              tag core r.view;
              acc := { !acc with replayed = !acc.replayed + 1 }
            end
            else acc := { !acc with decode_errors = !acc.decode_errors + 1 })
          replay.records
      end)
    sources;
  {
    !acc with
    records = merge_records (List.rev !tagged);
    rows = merge_rows (List.rev !rows);
  }

let apply replica parsed =
  Replica.restore replica ~epoch:parsed.epoch ~records:parsed.records
    ~rows:parsed.rows
