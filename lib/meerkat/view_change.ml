(* The §5.3.2 backup-coordinator view change, as a pure state machine.

   Like [Protocol] and [Detector], this module holds every decision
   and none of the transport: drivers perform the emitted actions over
   their own channels and feed the replies back. One table serves a
   whole driver (the simulator's deployment, the live monitor, one
   cluster node), keyed by tid — the detector starts at most one view
   change per transaction. *)

module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid
module Txn = Mk_storage.Txn
module Trecord = Mk_storage.Trecord

type outcome = [ `Finished | `Abandoned ]

type action =
  | Coord_change of { replica : int; observer : int; tid : Tid.t; view : int }
  | Vc_accept of {
      replica : int;
      observer : int;
      txn : Txn.t;
      ts : Timestamp.t;
      decision : [ `Commit | `Abort ];
      view : int;
    }
  | Write_back of { observer : int; txn : Txn.t; ts : Timestamp.t; commit : bool }
  | Done of { tid : Tid.t; observer : int; outcome : outcome }

type vc = {
  observer : int;
  txn : Txn.t;
  ts : Timestamp.t;
  view : int;
  deadline : float;
  gathered : Recovery.reply option array;  (* by replica *)
  mutable n_gathered : int;
  mutable chosen : [ `Commit | `Abort ] option;
  accepted : bool array;  (* by replica *)
  mutable n_accepted : int;
  mutable rto : float;
  mutable due : float;  (* next retry *)
}

type t = {
  n : int;
  majority : int;
  quorum : Quorum.t;
  live : vc Tid.Table.t;
  mutable next_due : float;
      (* Lower bound on every due retry and deadline: removing a change
         never invalidates it, so only starting and firing update it. *)
}

let create ~n =
  let quorum = Quorum.create ~n in
  {
    n;
    majority = Quorum.majority quorum;
    quorum;
    live = Tid.Table.create 16;
    next_due = infinity;
  }

(* Both phases (re)send to the replicas that have not answered, in
   replica order. *)
let send_gather tid vc ~into =
  Array.iteri
    (fun replica gathered ->
      if Option.is_none gathered then
        Batch.emit into
          (Coord_change { replica; observer = vc.observer; tid; view = vc.view }))
    vc.gathered

let send_accepts vc decision ~into =
  Array.iteri
    (fun replica accepted ->
      if not accepted then
        Batch.emit into
          (Vc_accept
             {
               replica;
               observer = vc.observer;
               txn = vc.txn;
               ts = vc.ts;
               decision;
               view = vc.view;
             }))
    vc.accepted

let finish t tid vc ~commit ~into =
  Tid.Table.remove t.live tid;
  Batch.emit into
    (Write_back { observer = vc.observer; txn = vc.txn; ts = vc.ts; commit });
  Batch.emit into (Done { tid; observer = vc.observer; outcome = `Finished })

let abandon t tid vc ~into =
  Tid.Table.remove t.live tid;
  Batch.emit into (Done { tid; observer = vc.observer; outcome = `Abandoned })

let start t ~observer ~(record : Trecord.entry) ~view ~rto ~deadline ~now ~into =
  let tid = record.txn.Txn.tid in
  let vc =
    {
      observer;
      txn = record.txn;
      ts = record.ts;
      view;
      deadline;
      gathered = Array.make t.n None;
      n_gathered = 0;
      chosen = None;
      accepted = Array.make t.n false;
      n_accepted = 0;
      rto;
      due = now +. rto;
    }
  in
  Tid.Table.replace t.live tid vc;
  t.next_due <- Float.min t.next_due (Float.min vc.due deadline);
  send_gather tid vc ~into

(* The change a reply answers: the one in flight for [tid], proposed
   by [observer] at [view]. Replica ids index the per-change arrays,
   so an out-of-range one (a hostile or corrupt datagram) matches
   nothing. *)
let find t ~tid ~observer ~view ~replica =
  if replica < 0 || replica >= t.n then None
  else
    match Tid.Table.find_opt t.live tid with
    | Some vc when vc.observer = observer && vc.view = view -> Some vc
    | Some _ | None -> None

let coord_reply t ~tid ~observer ~view ~replica reply ~into =
  match find t ~tid ~observer ~view ~replica with
  | Some ({ chosen = None; _ } as vc) -> (
      match reply with
      | `Stale _ -> abandon t tid vc ~into
      | `View_ok record ->
          (* Z7: [find] checked [replica] against [0, n). *)
          if Option.is_none (vc.gathered.(replica) [@mk_lint.allow "Z7"]) then begin
            (vc.gathered.(replica) <-
               Some
                 (match record with
                 | None -> Recovery.No_record
                 | Some v -> Recovery.Record v))
            [@mk_lint.allow "Z7"];
            vc.n_gathered <- vc.n_gathered + 1;
            if vc.n_gathered >= t.majority then begin
              let replies =
                Array.mapi (fun r g -> Option.map (fun g -> (r, g)) g) vc.gathered
                |> Array.to_list |> List.filter_map Fun.id
              in
              let decision = Recovery.choose ~quorum:t.quorum ~replies in
              vc.chosen <- Some decision;
              send_accepts vc decision ~into
            end
          end)
  | Some _ | None -> ()

let accept_reply t ~tid ~observer ~view ~replica reply ~into =
  match find t ~tid ~observer ~view ~replica with
  | Some ({ chosen = Some decision; _ } as vc) -> (
      match reply with
      | `Accepted ->
          (* Z7: [find] checked [replica] against [0, n). *)
          if not (vc.accepted.(replica) [@mk_lint.allow "Z7"]) then begin
            (vc.accepted.(replica) <- true) [@mk_lint.allow "Z7"];
            vc.n_accepted <- vc.n_accepted + 1;
            if vc.n_accepted >= t.majority then
              finish t tid vc ~commit:(decision = `Commit) ~into
          end
      | `Finalized st -> finish t tid vc ~commit:(st = Txn.Committed) ~into
      | `Stale _ -> abandon t tid vc ~into)
  | Some _ | None -> ()

let retry t tid vc ~now ~into =
  if now > vc.deadline then begin
    abandon t tid vc ~into;
    None
  end
  else begin
    (match vc.chosen with
    | Some decision -> send_accepts vc decision ~into
    | None -> send_gather tid vc ~into);
    vc.rto <- vc.rto *. 2.0;
    vc.due <- now +. vc.rto;
    Some vc.rto
  end

let timer t ~now ~tid ~into =
  match Tid.Table.find_opt t.live tid with
  | Some vc when now >= vc.due -> retry t tid vc ~now ~into
  | Some _ | None -> None

let fire_due t ~now ~into =
  if now >= t.next_due then begin
    (* Collect first: retrying may remove the change. *)
    let due =
      Tid.Table.fold
        (fun tid vc acc ->
          if now > vc.deadline || now >= vc.due then (tid, vc) :: acc else acc)
        t.live []
    in
    List.iter (fun (tid, vc) -> ignore (retry t tid vc ~now ~into : float option)) due;
    t.next_due <-
      Tid.Table.fold
        (fun _ vc m -> Float.min m (Float.min vc.due vc.deadline))
        t.live infinity
  end

let next_due t = t.next_due
