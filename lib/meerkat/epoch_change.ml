(* The §5.3.1 epoch change of one replica, as a pure state machine:
   the messages and core acks in, sends, freezes, thaws and detector
   reports out into the caller's batch. See the interface for the
   protocol; the comments here note why each step is safe. *)

type 'dst action =
  | Change of { dst : 'dst; epoch : int }
  | Records of { dst : 'dst; epoch : int; records : (int * Replica.record_view) list }
  | Install of {
      dst : 'dst;
      epoch : int;
      records : (int * Replica.record_view) list;
      store : Replica.store_row list option;
    }
  | Installed of { dst : 'dst; epoch : int }
  | Freeze of { core : int; gen : int }
  | Thaw of { core : int; gen : int }
  | Finished of { success : bool; recovering : int list }

type ops = {
  handle_epoch_change : epoch:int -> Replica.record_view list option;
  record_views : unit -> (int * Replica.record_view) list;
  handle_epoch_complete :
    epoch:int ->
    records:(int * Replica.record_view) list ->
    store:Replica.store_row list option ->
    unit option;
  store_snapshot : unit -> Replica.store_row list;
  resume : epoch:int -> unit option;
  merge : Epoch.report list -> (int * Replica.record_view) list;
}

type 'dst role =
  | Initiator of {
      recovering : int list;
      gathered : (int, (int * Replica.record_view) list) Hashtbl.t;
      mutable merged : (int * Replica.record_view) list option;
      mutable store : Replica.store_row list;
          (* Post-install state-transfer rows for the recovering. *)
      installed_from : bool array;
    }
  | Peer of {
      mutable from : 'dst;  (* Where records go. *)
      mutable rank : int;
          (* Initiator id for the tie-break; [max_int] when the change
             was started by an install alone. *)
      mutable sent_records : bool;
      mutable pending :
        ('dst * (int * Replica.record_view) list * Replica.store_row list option)
        option;
          (* An install that arrived before every core was frozen, with
             its sender: the ack goes there. *)
    }

type 'dst change = {
  epoch : int;
  gen : int;  (* Freeze generation: thaws only match their gen. *)
  frozen : bool array;
  deadline : float;
  mutable rto : float;
  mutable next_retry : float;
  mutable role : 'dst role;
}

type 'dst t = {
  me : int;
  n : int;
  cores : int;
  quorum : Quorum.t;
  rto : float;
  give_up_after : float;
  addr : int -> 'dst;
  ops : ops;
  mutable current : 'dst change option;
  mutable gen : int;
  mutable installed_epoch : int;
      (* Mirror of the replica's installed epoch, for re-acking
         retransmitted installs without touching the stores. *)
}

let create ~me ~n ~cores ~quorum ~rto ~give_up_after ~epoch ~addr ops =
  { me; n; cores; quorum; rto; give_up_after; addr; ops; current = None; gen = 0;
    installed_epoch = epoch }

let peer ~from ~rank ~pending = Peer { from; rank; sent_records = false; pending }
let all_frozen (c : _ change) = Array.for_all Fun.id c.frozen

let freeze_unfrozen (c : _ change) ~into =
  Array.iteri
    (fun core frozen ->
      if not frozen then Batch.emit into (Freeze { core; gen = c.gen }))
    c.frozen

let thaw t (c : _ change) ~into =
  for core = 0 to t.cores - 1 do Batch.emit into (Thaw { core; gen = c.gen }) done

let begin_change t ~epoch ~role ~now ~into =
  t.gen <- t.gen + 1;
  let frozen = Array.make t.cores false and deadline = now +. t.give_up_after in
  let rto = t.rto and next_retry = now +. t.rto in
  let c = { epoch; gen = t.gen; frozen; deadline; rto; next_retry; role } in
  t.current <- Some c;
  freeze_unfrozen c ~into

let report ~success ~recovering ~into =
  Batch.emit into (Finished { success; recovering })

let finish t ~success ~recovering ~into =
  t.current <- None;
  report ~success ~recovering ~into

(* Rebuild the local replica from the merged trecord (and an optional
   store snapshot). Every core is frozen: this mutates every partition. *)
let install t ~epoch ~records ~store =
  match t.ops.handle_epoch_complete ~epoch ~records ~store with
  | Some () ->
      if epoch > t.installed_epoch then t.installed_epoch <- epoch;
      true
  | None -> false

(* Install, ack to [dst] only what was installed, then thaw: a refusal
   means a newer epoch won, and either way this change is done. *)
let install_and_ack t c ~dst ~records ~store ~into =
  if install t ~epoch:c.epoch ~records ~store then
    Batch.emit into (Installed { dst; epoch = c.epoch });
  thaw t c ~into

let broadcast_change t c ~into =
  for p = 0 to t.n - 1 do
    if p <> t.me then Batch.emit into (Change { dst = t.addr p; epoch = c.epoch })
  done

let send_installs t c ~recovering ~records ~store ~installed_from ~into =
  Array.iteri
    (fun p installed ->
      if p <> t.me && not installed then
        let store = if List.mem p recovering then Some store else None in
        Batch.emit into (Install { dst = t.addr p; epoch = c.epoch; records; store }))
    installed_from

let try_merge t c ~into =
  match c.role with
  | Initiator ({ merged = None; _ } as r)
    when Hashtbl.length r.gathered >= Quorum.majority t.quorum ->
      let reports =
        Hashtbl.fold
          (fun replica records acc -> { Epoch.replica; records } :: acc)
          r.gathered []
      in
      (* Z7 (lib/meerkat/epoch.ml): [merge] is guarded — the table
         holds >= majority distinct replica ids. *)
      let merged = t.ops.merge reports in
      if install t ~epoch:c.epoch ~records:merged ~store:None then begin
        r.merged <- Some merged;
        r.store <- t.ops.store_snapshot ();
        (* Z7: [me] < [n], checked by the driver. *)
        (r.installed_from.(t.me) <- true) [@mk_lint.allow "Z7"];
        thaw t c ~into;
        send_installs t c ~recovering:r.recovering ~records:merged ~store:r.store
          ~installed_from:r.installed_from ~into
      end
      else begin
        (* Our own replica refused the install — a newer epoch beat
           this change. Abandon; the winner completes. *)
        thaw t c ~into;
        finish t ~success:false ~recovering:r.recovering ~into
      end
  | Initiator _ | Peer _ -> ()

(* Pause the replica at the change's epoch. [None] just means it already
   entered it (a duplicate [Change]); its records are valid either way —
   the cores are frozen. *)
let enter t c = ignore (t.ops.handle_epoch_change ~epoch:c.epoch : _ option)

let peer_report t c ~into =
  match c.role with
  | Peer p ->
      enter t c;
      p.sent_records <- true;
      Batch.emit into
        (Records { dst = p.from; epoch = c.epoch; records = t.ops.record_views () })
  | Initiator _ -> ()

let on_frozen t c ~into =
  match c.role with
  | Initiator r ->
      (* Contribute our own report, and poll the peers. *)
      enter t c;
      Hashtbl.replace r.gathered t.me (t.ops.record_views ());
      broadcast_change t c ~into;
      try_merge t c ~into
  | Peer { pending = Some (src, records, store); _ } ->
      install_and_ack t c ~dst:src ~records ~store ~into;
      t.current <- None
  | Peer { pending = None; _ } -> peer_report t c ~into

let start t ~epoch ~recovering ~now ~into =
  match t.current with
  | Some _ -> () (* one change at a time; the detector's cooldown re-arms *)
  | None ->
      let installed_from = Array.make t.n false and gathered = Hashtbl.create 8 in
      let role =
        Initiator { recovering; gathered; merged = None; store = []; installed_from }
      in
      begin_change t ~epoch ~role ~now ~into

let start_peer t ~initiator ~epoch ~now ~into =
  let role = peer ~from:(t.addr initiator) ~rank:initiator ~pending:None in
  begin_change t ~epoch ~role ~now ~into

let on_change t ~initiator ~epoch ~now ~into =
  if epoch > t.installed_epoch && initiator <> t.me then
    match t.current with
    | None -> start_peer t ~initiator ~epoch ~now ~into
    | Some c when c.epoch > epoch -> ()
    | Some c when c.epoch = epoch -> (
        match c.role with
        | Initiator r ->
            if initiator < t.me then begin
              (* Tie-break: the lower id drives this epoch; turn into
                 its peer. The cores stay frozen under the same
                 generation. *)
              c.role <- peer ~from:(t.addr initiator) ~rank:initiator ~pending:None;
              report ~success:false ~recovering:r.recovering ~into;
              if all_frozen c then peer_report t c ~into
            end
        | Peer p ->
            if initiator < p.rank && not p.sent_records then begin
              (* Not reported yet (the cores are still freezing): follow
                 the lower id. A peer that has reported stays with its
                 initiator, whose majority may already count it —
                 counted by a second initiator too, two merges could
                 install at one epoch. *)
              p.rank <- initiator;
              p.from <- t.addr initiator
            end
            else if initiator = p.rank && p.sent_records then
              (* Duplicate change: our report was lost. *)
              peer_report t c ~into)
    | Some c ->
        (* A newer epoch supersedes the change in flight. *)
        (match c.role with
        | Initiator r -> report ~success:false ~recovering:r.recovering ~into
        | Peer _ -> ());
        start_peer t ~initiator ~epoch ~now ~into

let on_records t ~replica ~epoch ~records ~into =
  match t.current with
  | Some ({ role = Initiator ({ merged = None; _ } as r); _ } as c)
    when c.epoch = epoch && replica >= 0 && replica < t.n ->
      if not (Hashtbl.mem r.gathered replica) then begin
        Hashtbl.replace r.gathered replica records;
        try_merge t c ~into
      end
  | Some _ | None -> ()

let on_install t ~src ~epoch ~records ~store ~now ~into =
  if epoch <= t.installed_epoch then
    (* Already installed (a retransmit): just re-ack. *)
    Batch.emit into (Installed { dst = src; epoch })
  else
    match t.current with
    | Some c when c.epoch = epoch -> (
        match c.role with
        | Peer p ->
            (* Ack the install's sender: it need not be the initiator
               this peer reported to, if that one turned peer itself. *)
            if all_frozen c then begin
              install_and_ack t c ~dst:src ~records ~store ~into;
              t.current <- None
            end
            else p.pending <- Some (src, records, store)
        | Initiator r ->
            (* A rival initiator won the race to a majority; adopt its
               merge once our cores are frozen. *)
            if all_frozen c then begin
              install_and_ack t c ~dst:src ~records ~store ~into;
              finish t ~success:false ~recovering:r.recovering ~into
            end)
    | Some _ -> ()
    | None ->
        (* We never saw the [Change] (loss or reorder): freeze and
           install once the cores ack. *)
        let role = peer ~from:src ~rank:max_int ~pending:(Some (src, records, store)) in
        begin_change t ~epoch ~role ~now ~into

let on_installed t ~replica ~epoch ~into =
  match t.current with
  | Some { epoch = e; role = Initiator ({ merged = Some _; _ } as r); _ }
    when e = epoch && replica >= 0 && replica < t.n ->
      (* Z7: [replica] is checked against [0, n) by the guard above. *)
      (r.installed_from.(replica) <- true) [@mk_lint.allow "Z7"];
      if Array.for_all Fun.id r.installed_from then
        finish t ~success:true ~recovering:r.recovering ~into
  | Some _ | None -> ()

let core_frozen t ~core ~gen ~into =
  match t.current with
  | Some c
    when c.gen = gen && core >= 0 && core < t.cores
         (* Z7: in range by the guard on the same line. *)
         && not (c.frozen.(core) [@mk_lint.allow "Z7"]) ->
      (c.frozen.(core) <- true) [@mk_lint.allow "Z7"];
      if all_frozen c then on_frozen t c ~into
  | Some _ | None -> ()

let expire t c ~into =
  (* Resume from our own records — the replica must not stay paused
     behind an abandoned change. Any record a missed merge finalized
     is repaired later by the §5.3.2 view change; a replica rebuilding
     after a reboot stays paused, as only a merge may readmit it. *)
  let resume () =
    ignore (t.ops.resume ~epoch:c.epoch : unit option);
    thaw t c ~into
  in
  match c.role with
  | Initiator r ->
      let installed p =
        (* Z7: in range by the guard. *)
        p >= 0 && p < t.n && (r.installed_from.(p) [@mk_lint.allow "Z7"])
      in
      let ok = r.merged <> None && List.for_all installed r.recovering in
      if r.merged = None then resume ();
      finish t ~success:ok ~recovering:r.recovering ~into
  | Peer _ ->
      resume ();
      t.current <- None

let retry t (c : _ change) ~now ~into =
  c.rto <- c.rto *. 2.0;
  c.next_retry <- now +. c.rto;
  if not (all_frozen c) then freeze_unfrozen c ~into
  else
    match c.role with
    | Initiator { merged = None; _ } -> broadcast_change t c ~into
    | Initiator { merged = Some records; recovering; store; installed_from; _ } ->
        send_installs t c ~recovering ~records ~store ~installed_from ~into
    | Peer p -> if p.sent_records then peer_report t c ~into

let fire_due t ~now ~into =
  match t.current with
  | None -> ()
  | Some c ->
      if now > c.deadline then expire t c ~into
      else if now >= c.next_retry then retry t c ~now ~into

let next_due t =
  match t.current with
  | None -> infinity
  | Some c -> Float.min c.next_retry c.deadline
