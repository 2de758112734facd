(* Cross-shard 2PC coordinator state machine (DESIGN.md §13).

   Pure action-list machine, the style of lib/meerkat/protocol.ml: the
   driver owns transport and time, this machine owns only the phase
   logic. The per-shard votes are the shards' own validate/accept
   decisions (globally unique client timestamps make them composable),
   so the machine never arms a timer — retransmission and stuck-record
   recovery live in the per-shard commit protocol below it. *)

module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn

type action =
  | Read of { shard : int; key : int; index : int }
  | Need_stamp
  | Prepare of { shard : int; txn : Txn.t; ts : Timestamp.t }
  | Finalize of { shard : int; txn : Txn.t; ts : Timestamp.t; commit : bool }
  | Done of { committed : bool; involved : int list }

type event =
  | Read_done of { index : int; value : int; wts : Timestamp.t }
  | Stamped of { tid : Timestamp.Tid.t; ts : Timestamp.t; writes : (int * int) array }
  | Prepared of { shard : int; commit : bool }

type phase =
  | Executing of { mutable missing : int }
  | Stamping
  | Preparing of {
      ts : Timestamp.t;
      subs : (int * Txn.t) list;  (** Involved shards, ascending. *)
      mutable votes : (int * bool) list;  (** One per shard heard from. *)
    }
  | Decided of { committed : bool; involved : int list }

type t = {
  router : Router.t;
  reads : int array;  (** Global keys, in request order. *)
  read_entries : Txn.read_entry array;
  values : int array;
  got : bool array;  (** Which read indices have answered. *)
  mutable phase : phase;
}

let start ~router ~reads =
  let n = Array.length reads in
  let t =
    {
      router;
      reads;
      read_entries =
        Array.map (fun key -> { Txn.key; wts = Timestamp.zero }) reads;
      values = Array.make n 0;
      got = Array.make n false;
      phase = Executing { missing = n };
    }
  in
  if n = 0 then begin
    t.phase <- Stamping;
    (t, [ Need_stamp ])
  end
  else
    ( t,
      List.init n (fun index ->
          let key = reads.(index) in
          Read
            {
              shard = Router.shard_of_key router key;
              key = Router.local_key router key;
              index;
            }) )

let handle t (ev : event) =
  match (t.phase, ev) with
  | Executing e, Read_done { index; value; wts } ->
      if index < 0 || index >= Array.length t.reads || t.got.(index) then []
      else begin
        t.got.(index) <- true;
        t.read_entries.(index) <- { (t.read_entries.(index)) with Txn.wts };
        t.values.(index) <- value;
        e.missing <- e.missing - 1;
        if e.missing = 0 then begin
          t.phase <- Stamping;
          [ Need_stamp ]
        end
        else []
      end
  | Stamping, Stamped { tid; ts; writes } ->
      (* The read entries are final once stamping starts: the
         transaction takes the array as it is. *)
      let txn =
        {
          Txn.tid;
          read_set = t.read_entries;
          write_set = Array.map (fun (key, value) -> { Txn.key; value }) writes;
        }
      in
      let subs = Router.split t.router txn in
      if subs = [] then begin
        (* Nothing to validate anywhere: trivially committed. *)
        t.phase <- Decided { committed = true; involved = [] };
        [ Done { committed = true; involved = [] } ]
      end
      else begin
        t.phase <- Preparing { ts; subs; votes = [] };
        List.map (fun (shard, txn) -> Prepare { shard; txn; ts }) subs
      end
  | Preparing p, Prepared { shard; commit } ->
      if List.mem_assoc shard p.votes || not (List.mem_assoc shard p.subs)
      then []
      else begin
        p.votes <- (shard, commit) :: p.votes;
        if List.compare_lengths p.votes p.subs < 0 then []
        else begin
          let committed = List.for_all snd p.votes in
          let involved = List.map fst p.subs in
          t.phase <- Decided { committed; involved };
          List.fold_right
            (fun (shard, txn) acts ->
              Finalize { shard; txn; ts = p.ts; commit = committed } :: acts)
            p.subs
            [ Done { committed; involved } ]
        end
      end
  (* Late, duplicate or out-of-phase events: a lossy / duplicating
     transport below must not be able to corrupt the vote. *)
  | (Executing _ | Stamping | Preparing _ | Decided _), _ -> []

let values t = Array.copy t.values
let read_set t = Array.to_list t.read_entries

let decided t = match t.phase with Decided _ -> true | _ -> false

let committed t =
  match t.phase with Decided d -> d.committed | _ -> false

let involved t =
  match t.phase with
  | Decided d -> d.involved
  | Preparing p -> List.map fst p.subs
  | Executing _ | Stamping -> []
