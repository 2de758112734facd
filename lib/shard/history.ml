(* Merge per-shard committed histories (local keys) into the global
   history the serializability checker consumes (DESIGN.md §13). *)

module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid
module Txn = Mk_storage.Txn

type acc = {
  mutable ts : Timestamp.t;
  mutable subs : (int * Txn.t) list;
  order : int;  (** First-seen rank, to keep the output deterministic. *)
}

let merge ~router per_shard =
  let table : acc Tid.Table.t = Tid.Table.create 256 in
  let next_order = ref 0 in
  List.iter
    (fun (shard, history) ->
      List.iter
        (fun ((txn : Txn.t), ts) ->
          match Tid.Table.find_opt table txn.Txn.tid with
          | None ->
              Tid.Table.replace table txn.Txn.tid
                { ts; subs = [ (shard, txn) ]; order = !next_order };
              incr next_order
          | Some acc ->
              if Timestamp.compare acc.ts ts <> 0 then
                invalid_arg
                  (Format.asprintf
                     "History.merge: tid %a committed at two timestamps \
                      (%a vs %a)"
                     Tid.pp txn.Txn.tid Timestamp.pp acc.ts Timestamp.pp ts);
              acc.subs <- (shard, txn) :: acc.subs)
        history)
    per_shard;
  Tid.Table.fold (fun tid acc l -> (tid, acc) :: l) table []
  |> List.sort (fun (_, a) (_, b) -> compare a.order b.order)
  |> List.map (fun (tid, acc) ->
         let reads, writes = Router.merge_sub router acc.subs in
         (Txn.make ~tid ~read_set:reads ~write_set:writes, acc.ts))
