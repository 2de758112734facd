(* Key → shard placement (DESIGN.md §13): the pure bijection between
   global keys and (shard, local key) pairs, shared by the sim, live
   and cluster backends and by the merged-history checker. *)

module Txn = Mk_storage.Txn

type policy = Mod | Range

let policy_to_string = function Mod -> "mod" | Range -> "range"

let policy_of_string = function
  | "mod" -> Ok Mod
  | "range" -> Ok Range
  | s -> Error (Printf.sprintf "unknown shard policy %S (mod|range)" s)

type t = {
  policy : policy;
  shards : int;
  keys : int;
  block : int;  (** [Range] block size, ceil(keys/shards); 1 for [Mod]. *)
}

let create ?(policy = Mod) ~shards ~keys () =
  if shards < 1 then invalid_arg "Router.create: shards must be >= 1";
  if keys < 1 then invalid_arg "Router.create: keys must be >= 1";
  let block = ((keys - 1) / shards) + 1 in
  { policy; shards; keys; block }

let policy t = t.policy
let shards t = t.shards
let keys t = t.keys

(* Total on all of int: a hostile global key still lands in
   [0, shards) — callers at trust boundaries count nonsense keys as
   drops, but the router itself never raises. *)
let shard_of_key t key =
  match t.policy with
  | Mod ->
      let s = key mod t.shards in
      if s < 0 then s + t.shards else s
  | Range ->
      if key < 0 then 0
      else if key >= t.keys then t.shards - 1
      else key / t.block

let local_key t key =
  match t.policy with
  | Mod -> key / t.shards
  | Range -> key - (shard_of_key t key * t.block)

let global_key t ~shard local =
  match t.policy with
  | Mod -> (local * t.shards) + shard
  | Range -> (shard * t.block) + local

let local_keys t ~shard =
  match t.policy with
  | Mod -> if shard >= t.keys then 0 else ((t.keys - 1 - shard) / t.shards) + 1
  | Range -> max 0 (min t.block (t.keys - (shard * t.block)))

let involved t (txn : Txn.t) =
  let seen = Hashtbl.create 4 in
  let add key =
    let s = shard_of_key t key in
    if not (Hashtbl.mem seen s) then Hashtbl.add seen s ()
  in
  Array.iter (fun (r : Txn.read_entry) -> add r.key) txn.Txn.read_set;
  Array.iter (fun (w : Txn.write_entry) -> add w.key) txn.Txn.write_set;
  List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) seen [])

let split t (txn : Txn.t) =
  if t.shards = 1 then
    (* Local keys are the global keys: the transaction is its own
       sub-transaction. *)
    if Txn.nkeys txn = 0 then [] else [ (0, txn) ]
  else
    List.map
      (fun shard ->
        let read_set =
          Array.to_list txn.Txn.read_set
          |> List.filter_map (fun (r : Txn.read_entry) ->
                 if shard_of_key t r.key = shard then
                   Some { r with Txn.key = local_key t r.key }
                 else None)
        in
        let write_set =
          Array.to_list txn.Txn.write_set
          |> List.filter_map (fun (w : Txn.write_entry) ->
                 if shard_of_key t w.key = shard then
                   Some { w with Txn.key = local_key t w.key }
                 else None)
        in
        (shard, Txn.make ~tid:txn.Txn.tid ~read_set ~write_set))
      (involved t txn)

let merge_sub t subs =
  let reads =
    List.concat_map
      (fun (shard, (txn : Txn.t)) ->
        Array.to_list txn.Txn.read_set
        |> List.map (fun (r : Txn.read_entry) ->
               { r with Txn.key = global_key t ~shard r.key }))
      subs
  in
  let writes =
    List.concat_map
      (fun (shard, (txn : Txn.t)) ->
        Array.to_list txn.Txn.write_set
        |> List.map (fun (w : Txn.write_entry) ->
               { w with Txn.key = global_key t ~shard w.key }))
      subs
  in
  (reads, writes)

let pp ppf t =
  Format.fprintf ppf "router(%s, %d shards, %d keys)"
    (policy_to_string t.policy) t.shards t.keys
