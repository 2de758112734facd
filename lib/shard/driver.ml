(* The shared multi-group driver: one {!Xcoord} translation loop for
   every backend (DESIGN.md §13). *)

module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn

module type GROUP = sig
  type t

  val execute_reads :
    t -> client:int -> keys:int array -> (int -> int -> Timestamp.t -> unit) -> unit

  val fresh_txn_stamp : t -> client:int -> Timestamp.Tid.t * Timestamp.t

  val prepare_txn :
    t ->
    txn:Txn.t ->
    ts:Timestamp.t ->
    on_prepared:(bool -> unit) ->
    unit

  val finalize_txn :
    t -> txn:Txn.t -> ts:Timestamp.t -> commit:bool -> unit
end

module Make (G : GROUP) = struct
  type t = {
    router : Router.t;
    groups : G.t array;
    mutable committed : int;
    mutable aborted : int;
    sub_history : (Txn.t * Timestamp.t) list ref array;
        (** Per-shard committed sub-transactions (local keys), newest
            first. *)
  }

  let create ~router ~groups =
    if Array.length groups <> Router.shards router then
      invalid_arg "Driver.create: one group per router shard";
    {
      router;
      groups;
      committed = 0;
      aborted = 0;
      sub_history = Array.init (Array.length groups) (fun _ -> ref []);
    }

  let router t = t.router
  let shards t = Array.length t.groups
  let group t s = t.groups.(s)

  let submit t ~client ~reads ~writes ~on_done =
    let m, actions = Xcoord.start ~router:t.router ~reads in
    let rec perform (a : Xcoord.action) =
      match a with
      | Xcoord.Read { shard; keys; index } ->
          (* One batch and one callback per involved shard; answer [i]
             is read [index.(i)] of the request ([i] itself with one
             shard). *)
          G.execute_reads t.groups.(shard) ~client ~keys (fun i value wts ->
              let index = match index with None -> i | Some ix -> ix.(i) in
              List.iter perform (Xcoord.read_done m ~index ~value ~wts))
      | Xcoord.Need_stamp ->
          let ws = writes (Xcoord.values m) in
          let tid, ts = G.fresh_txn_stamp t.groups.(0) ~client in
          dispatch (Xcoord.Stamped { tid; ts; writes = ws })
      | Xcoord.Prepare { shard; txn; ts } ->
          G.prepare_txn t.groups.(shard) ~txn ~ts ~on_prepared:(fun commit ->
              dispatch (Xcoord.Prepared { shard; commit }))
      | Xcoord.Finalize { shard; txn; ts; commit } ->
          G.finalize_txn t.groups.(shard) ~txn ~ts ~commit;
          if commit then
            t.sub_history.(shard) := (txn, ts) :: !(t.sub_history.(shard))
      | Xcoord.Done { committed; involved = _ } ->
          if committed then t.committed <- t.committed + 1
          else t.aborted <- t.aborted + 1;
          on_done ~committed
    and dispatch ev = List.iter perform (Xcoord.handle m ev) in
    List.iter perform actions

  let committed t = t.committed
  let aborted t = t.aborted

  let sub_histories t =
    Array.to_list (Array.mapi (fun shard h -> (shard, List.rev !h)) t.sub_history)

  let history t = History.merge ~router:t.router (sub_histories t)
end
