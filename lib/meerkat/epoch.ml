module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn
module Vstore = Mk_storage.Vstore
module Occ = Mk_storage.Occ

type report = { replica : int; records : (int * Replica.record_view) list }

(* All reports about one transaction, across replicas. *)
type gathered = {
  core : int;
  txn : Txn.t;
  ts : Timestamp.t;
  mutable views : Replica.record_view list;
}

let gather reports =
  let table = Timestamp.Tid.Table.create 1024 in
  let order = ref [] in
  List.iter
    (fun report ->
      List.iter
        (fun (core, (v : Replica.record_view)) ->
          match Timestamp.Tid.Table.find_opt table v.txn.Txn.tid with
          | Some g -> g.views <- v :: g.views
          | None ->
              let g = { core; txn = v.txn; ts = v.ts; views = [ v ] } in
              Timestamp.Tid.Table.add table v.txn.Txn.tid g;
              order := g :: !order)
        report.records)
    reports;
  List.rev !order

let count pred views = List.length (List.filter pred views)

(* Rule 2: the accepted decision with the highest view, if any. *)
let latest_accepted views =
  List.fold_left
    (fun best (v : Replica.record_view) ->
      match (v.accept_view, v.status) with
      | Some av, (Txn.Accepted_commit | Txn.Accepted_abort) -> begin
          match best with
          | Some (bv, _) when bv >= av -> best
          | _ -> Some (av, v.status = Txn.Accepted_commit)
        end
      | _ -> best)
    None views

(* One report per replica (first wins): a duplicated report must not
   double-count its records toward the majority or fast-recovery
   bounds below. *)
let dedup_reports reports =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun r ->
      if Hashtbl.mem seen r.replica then false
      else begin
        Hashtbl.add seen r.replica ();
        true
      end)
    reports

let merge ~quorum ~reports =
  let reports = dedup_reports reports in
  if List.length reports < Quorum.majority quorum then
    invalid_arg "Epoch.merge: needs reports from a majority of distinct replicas";
  let gathered = gather reports in
  (* Deterministic processing order: the proposed serialization order. *)
  let gathered =
    List.sort
      (fun a b ->
        let c = Timestamp.compare a.ts b.ts in
        if c <> 0 then c else Timestamp.Tid.compare a.txn.Txn.tid b.txn.Txn.tid)
      gathered
  in
  let decided = ref [] (* (core, view) accumulated in ts order *) in
  let revalidate_queue = ref [] in
  let final g ~commit =
    let status = if commit then Txn.Committed else Txn.Aborted in
    decided :=
      ( g.core,
        ({ txn = g.txn; ts = g.ts; status; view = 0; accept_view = None }
          : Replica.record_view) )
      :: !decided
  in
  List.iter
    (fun g ->
      let views = g.views in
      let committed = count (fun v -> v.Replica.status = Txn.Committed) views in
      let aborted = count (fun v -> v.Replica.status = Txn.Aborted) views in
      let ok = count (fun v -> v.Replica.status = Txn.Validated_ok) views in
      let vabort = count (fun v -> v.Replica.status = Txn.Validated_abort) views in
      if committed > 0 then final g ~commit:true
      else if aborted > 0 then final g ~commit:false
      else begin
        match latest_accepted views with
        | Some (_, commit) -> final g ~commit
        | None ->
            if ok >= Quorum.majority quorum then final g ~commit:true
            else if vabort >= Quorum.majority quorum then final g ~commit:false
            else if ok >= Quorum.fast_recovery quorum then
              (* Might have committed on the fast path: defer to OCC
                 re-validation against the merged history. *)
              revalidate_queue := g :: !revalidate_queue
            else final g ~commit:false
      end)
    gathered;
  (* Re-validate fast-path candidates in timestamp order against a
     scratch store that replays the decisions made so far. The scratch
     store starts from zero versions: the read-set wts values carried
     by each transaction supply the pre-crash versions, and only
     conflicts with merged commits can reject a candidate — matching
     the paper's argument that a fast-committed transaction can have
     no committed conflicter and thus always survives. *)
  let scratch = Vstore.create ~shards:16 () in
  let replay (v : Replica.record_view) =
    if v.status = Txn.Committed then begin
      (* Install writes and bump rts directly (no pending sets). *)
      Array.iter
        (fun (w : Txn.write_entry) ->
          let e = Vstore.find_or_create scratch w.key in
          Vstore.with_entry e (fun e ->
              if Timestamp.compare v.ts e.Vstore.wts > 0 then begin
                Vstore.set_value e w.value;
                Vstore.set_wts e v.ts
              end))
        v.txn.Txn.write_set;
      Array.iter
        (fun (r : Txn.read_entry) ->
          let e = Vstore.find_or_create scratch r.key in
          Vstore.with_entry e (fun e ->
              if Timestamp.compare v.ts e.Vstore.rts > 0 then Vstore.set_rts e v.ts;
              (* Reflect the version the reader observed so later writers
                 below it are rejected consistently. *)
              if Timestamp.compare r.wts e.Vstore.wts > 0 then Vstore.set_wts e r.wts))
        v.txn.Txn.read_set
    end
  in
  List.iter (fun (_, v) -> replay v) (List.rev !decided);
  let revalidated =
    List.rev_map
      (fun g ->
        let commit =
          match Occ.validate scratch g.txn ~ts:g.ts with
          | `Ok ->
              Occ.finish scratch g.txn ~ts:g.ts ~commit:true;
              true
          | `Abort -> false
        in
        let status = if commit then Txn.Committed else Txn.Aborted in
        ( g.core,
          ({ txn = g.txn; ts = g.ts; status; view = 0; accept_view = None }
            : Replica.record_view) ))
      !revalidate_queue
  in
  let all = List.rev_append !decided revalidated in
  List.sort
    (fun (_, (a : Replica.record_view)) (_, (b : Replica.record_view)) ->
      let c = Timestamp.compare a.ts b.ts in
      if c <> 0 then c else Timestamp.Tid.compare a.txn.Txn.tid b.txn.Txn.tid)
    all

let run_sync replicas ~recovering =
  let quorum = Quorum.create ~n:(Array.length replicas) in
  let healthy =
    Array.to_list replicas
    |> List.filter (fun r ->
           (not (Replica.is_crashed r)) && not (List.mem (Replica.id r) recovering))
  in
  if List.length healthy < Quorum.majority quorum then false
  else begin
    List.iter (fun id -> Replica.begin_recovery replicas.(id)) recovering;
    let epoch =
      1 + Array.fold_left (fun acc r -> max acc (Replica.epoch r)) 0 replicas
    in
    let reports =
      List.filter_map
        (fun r ->
          match Replica.handle_epoch_change r ~epoch with
          | None -> None
          | Some _ -> Some { replica = Replica.id r; records = Replica.record_views r })
        healthy
    in
    if List.length reports < Quorum.majority quorum then false
    else begin
      let merged = merge ~quorum ~reports in
      (* Healthy replicas install first so the snapshot sent to the
         recovering replicas reflects every merged commit. *)
      List.iter
        (fun r ->
          ignore (Replica.handle_epoch_complete r ~epoch ~records:merged ~store:None))
        healthy;
      let snapshot =
        match healthy with r :: _ -> Replica.store_snapshot r | [] -> []
      in
      List.iter
        (fun id ->
          ignore
            (Replica.handle_epoch_complete replicas.(id) ~epoch ~records:merged
               ~store:(Some snapshot)))
        recovering;
      true
    end
  end
