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
  | Read of { shard : int; keys : int array; index : int array option }
  | Need_stamp
  | Prepare of { shard : int; txn : Txn.t; ts : Timestamp.t }
  | Finalize of { shard : int; txn : Txn.t; ts : Timestamp.t; commit : bool }
  | Done of { committed : bool; involved : int list }

type event =
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
      (** Slot [i] is {!unread} until read [i] answers. *)
  values : int array;
  mutable phase : phase;
}

(* The placeholder of a read that has not answered yet, compared by
   identity: one shared immutable record, so starting a transaction
   builds no entry per key. *)
let unread = { Txn.key = -1; wts = Timestamp.zero }

(* One [Read] per involved shard, shards in first-appearance order,
   keys in request order: a first pass maps every key and collects the
   distinct shards, then one pass per shard gathers its keys. *)
let per_shard_reads router reads =
  let n = Array.length reads in
  let shard_of = Array.make n 0 and local = Array.make n 0 in
  let order = Array.make n 0 and counts = Array.make n 0 in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let s = Router.shard_of_key router reads.(i) in
    shard_of.(i) <- s;
    local.(i) <- Router.local_key router reads.(i);
    let j = ref 0 in
    while !j < !m && order.(!j) <> s do
      incr j
    done;
    if !j = !m then begin
      order.(!m) <- s;
      incr m
    end;
    counts.(!j) <- counts.(!j) + 1
  done;
  let actions = ref [] in
  for j = !m - 1 downto 0 do
    let shard = order.(j) in
    let keys = Array.make counts.(j) 0 and index = Array.make counts.(j) 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if shard_of.(i) = shard then begin
        keys.(!k) <- local.(i);
        index.(!k) <- i;
        incr k
      end
    done;
    actions := Read { shard; keys; index = Some index } :: !actions
  done;
  !actions

let start ~router ~reads =
  let n = Array.length reads in
  let t =
    {
      router;
      reads;
      read_entries = Array.make n unread;
      values = Array.make n 0;
      phase = Executing { missing = n };
    }
  in
  if n = 0 then begin
    t.phase <- Stamping;
    (t, [ Need_stamp ])
  end
  else if Router.shards router = 1 then
    (* One shard: local keys are the global keys, so the request's own
       array is the batch and answer [i] is read [i]. *)
    (t, [ Read { shard = 0; keys = reads; index = None } ])
  else (t, per_shard_reads router reads)

let read_done t ~index ~value ~wts =
  match t.phase with
  | Executing e ->
      if index < 0 || index >= Array.length t.reads
         || t.read_entries.(index) != unread
      then []
      else begin
        t.read_entries.(index) <- { Txn.key = t.reads.(index); wts };
        t.values.(index) <- value;
        e.missing <- e.missing - 1;
        if e.missing = 0 then begin
          t.phase <- Stamping;
          [ Need_stamp ]
        end
        else []
      end
  (* A late or duplicate read: the execute phase is over. *)
  | Stamping | Preparing _ | Decided _ -> []

let handle t (ev : event) =
  match (t.phase, ev) with
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

let values t = t.values

let decided t = match t.phase with Decided _ -> true | _ -> false

let committed t =
  match t.phase with Decided d -> d.committed | _ -> false

let involved t =
  match t.phase with
  | Decided d -> d.involved
  | Preparing p -> List.map fst p.subs
  | Executing _ | Stamping -> []
