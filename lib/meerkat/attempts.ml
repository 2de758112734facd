(* The client side's table of in-flight Protocol attempts, shared by
   every driver that runs the commit protocol over its own transport
   (the cluster client's datagrams, the live runtime's mailboxes).
   Transport and time are injected, so this stays pure. *)

module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid
module Txn = Mk_storage.Txn

type send = {
  validate : shard:int -> mask:int -> id:int -> Txn.t -> Timestamp.t -> unit;
  accept :
    shard:int ->
    mask:int ->
    id:int ->
    Txn.t ->
    Timestamp.t ->
    [ `Commit | `Abort ] ->
    unit;
  write_back :
    shard:int -> mask:int -> Txn.t -> Timestamp.t -> commit:bool -> unit;
}

type attempt = {
  id : int;
  shard : int;
  txn : Txn.t;
  ts : Timestamp.t;
  proto : Protocol.t;
  mutable timers : (Protocol.timer * float) list;  (* absolute deadlines *)
  k : bool -> unit;
}

type stamp = { mutable seq : int; mutable last : float }

type t = {
  params : Protocol.params;
  full_mask : int;  (* bit r set for every replica r *)
  rto_cap : float;
  send : send;
  on_retransmit : attempt -> unit;
  live : (int, attempt) Hashtbl.t;
  mutable next_id : int;
  stamps : (int, stamp) Hashtbl.t;
  pool : Protocol.action Batch.Pool.t;
      (* Pooled, not one scratch batch: a decision callback may start
         the next attempt while the outer batch is still iterated. *)
  mutable next_due : float;
      (* Lower bound on every armed deadline: removing an attempt never
         invalidates it, so only arming and firing update it. *)
  mutable fast : int;
  mutable slow : int;
}

let create ?(on_retransmit = fun _ -> ()) (params : Protocol.params) ~send =
  if params.n_replicas >= Sys.int_size then
    invalid_arg "Attempts.create: a replica set must fit one int mask";
  {
    params;
    full_mask = (1 lsl params.n_replicas) - 1;
    rto_cap = 8.0 *. params.rto;
    send;
    on_retransmit;
    live = Hashtbl.create 64;
    next_id = 0;
    stamps = Hashtbl.create 16;
    pool = Batch.Pool.create ();
    next_due = infinity;
    fast = 0;
    slow = 0;
  }

let stamp t client =
  match Hashtbl.find_opt t.stamps client with
  | Some s -> s
  | None ->
      let s = { seq = 0; last = 0.0 } in
      Hashtbl.add t.stamps client s;
      s

let mint t ~client ~now =
  let s = stamp t client in
  s.seq <- s.seq + 1;
  let time = if now <= s.last then s.last +. 1e-3 else now in
  s.last <- time;
  (Tid.make ~seq:s.seq ~client_id:client, Timestamp.make ~time ~client_id:client)

let last_stamp t ~client =
  match Hashtbl.find_opt t.stamps client with Some s -> s.last | None -> 0.0

let exec t ~now a (action : Protocol.action) =
  match action with
  | Protocol.Send_validates { only_missing } ->
      let mask =
        if not only_missing then t.full_mask
        else begin
          let m = ref 0 in
          for replica = 0 to t.params.n_replicas - 1 do
            if Protocol.needs_validate a.proto replica then
              m := !m lor (1 lsl replica)
          done;
          !m
        end
      in
      if mask <> 0 then t.send.validate ~shard:a.shard ~mask ~id:a.id a.txn a.ts
  | Protocol.Send_accepts { decision } ->
      t.send.accept ~shard:a.shard ~mask:t.full_mask ~id:a.id a.txn a.ts decision
  | Protocol.Arm_timer { timer; delay } ->
      let timer, delay =
        match timer with
        | Protocol.Retransmit rto when rto > t.rto_cap ->
            (Protocol.Retransmit t.rto_cap, Float.min delay t.rto_cap)
        | _ -> (timer, delay)
      in
      let deadline = now +. delay in
      a.timers <- (timer, deadline) :: a.timers;
      if deadline < t.next_due then t.next_due <- deadline
  | Protocol.Note_validated -> ()
  | Protocol.Note_decided { commit; fast } ->
      if fast then t.fast <- t.fast + 1 else t.slow <- t.slow + 1;
      Hashtbl.remove t.live a.id;
      a.k commit

(* Run a rented batch's actions, then hand it back. Rented and returned
   by hand, not through [with_batch], and indexed, not [Batch.iter], so
   an event costs no closure; a raise in between only leaves the batch
   to the collector. The bound is re-read each step (an action may emit
   follow-ups), and [Batch.get] cannot raise below it (Z7). *)
let perform t ~now a into =
  let i = ref 0 in
  while !i < Batch.length into do
    exec t ~now a (Batch.get into !i [@mk_lint.allow "Z7"]);
    incr i
  done;
  Batch.Pool.return t.pool into

let feed t ~now a event =
  let into = Batch.Pool.rent t.pool in
  Protocol.handle a.proto ~now event ~into;
  perform t ~now a into

let start t ~now ~shard ~txn ~ts ~on_decided =
  let id = t.next_id in
  t.next_id <- id + 1;
  let into = Batch.Pool.rent t.pool in
  let proto = Protocol.start t.params ~now ~into in
  let a = { id; shard; txn; ts; proto; timers = []; k = on_decided } in
  Hashtbl.replace t.live id a;
  perform t ~now a into

type reply = Fed | Stale | Misrouted

let reply t ~now ~id ~shard event =
  match Hashtbl.find_opt t.live id with
  | None -> Stale
  | Some a when a.shard <> shard -> Misrouted
  | Some a ->
      feed t ~now a event;
      Fed

let fire t ~now a =
  let due, pending = List.partition (fun (_, dl) -> dl <= now) a.timers in
  a.timers <- pending;
  List.iter
    (fun (timer, _) ->
      if not (Protocol.decided a.proto) then begin
        (match timer with
        | Protocol.Retransmit _ -> t.on_retransmit a
        | Protocol.Fast_grace -> ());
        feed t ~now a (Protocol.Timer timer)
      end)
    due

let fire_due t ~now =
  if now >= t.next_due then begin
    (* Collect first: feeding removes decided attempts and may start
       new ones. *)
    let due =
      Hashtbl.fold
        (fun _ a acc ->
          if List.exists (fun (_, dl) -> dl <= now) a.timers then a :: acc
          else acc)
        t.live []
    in
    List.iter (fire t ~now) due;
    t.next_due <-
      Hashtbl.fold
        (fun _ a m -> List.fold_left (fun m (_, dl) -> Float.min m dl) m a.timers)
        t.live infinity
  end

let next_due t = t.next_due

let resume t ~now =
  (* Collect first, as [fire_due] does; id order keeps the resends
     deterministic. *)
  Hashtbl.fold (fun _ a acc -> a :: acc) t.live []
  |> List.sort (fun a b -> compare a.id b.id)
  |> List.iter (fun a ->
         if not (Protocol.decided a.proto) then feed t ~now a Protocol.Resume)

let finalize t ~shard ~txn ~ts ~commit =
  t.send.write_back ~shard ~mask:t.full_mask txn ts ~commit

let in_flight t = Hashtbl.length t.live
let fast t = t.fast
let slow t = t.slow
let rto_cap t = t.rto_cap
