(* Unit tests for the Meerkat replica's protocol handlers, driven
   directly (no simulator). *)

module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn
module Quorum = Mk_meerkat.Quorum
module Replica = Mk_meerkat.Replica

let q3 = Quorum.create ~n:3
let ts time = Timestamp.make ~time ~client_id:1

let txn ?(client = 1) ~seq ~reads ~writes () =
  Txn.make
    ~tid:(Timestamp.Tid.make ~seq ~client_id:client)
    ~read_set:(List.map (fun (key, wts) -> ({ key; wts } : Txn.read_entry)) reads)
    ~write_set:(List.map (fun (key, value) -> ({ key; value } : Txn.write_entry)) writes)

let fresh ?(cores = 4) ?(keys = 16) () =
  let r = Replica.create ~id:0 ~quorum:q3 ~cores in
  for key = 0 to keys - 1 do
    Replica.load r ~key ~value:0
  done;
  r

let rmw ~seq key = txn ~seq ~reads:[ (key, Timestamp.zero) ] ~writes:[ (key, seq) ] ()

let test_get_initial () =
  let r = fresh () in
  (match Replica.handle_get r ~key:3 with
  | Some (0, wts) ->
      Alcotest.(check bool) "zero version" true (Timestamp.equal wts Timestamp.zero)
  | _ -> Alcotest.fail "expected initial value");
  (* Unloaded keys read as the zero version rather than failing —
     blind writes may create them later. *)
  match Replica.handle_get r ~key:99 with
  | Some (0, _) -> ()
  | _ -> Alcotest.fail "unloaded key reads zero"

let test_validate_and_commit_cycle () =
  let r = fresh () in
  let t = rmw ~seq:1 0 in
  Alcotest.(check bool) "validates ok" true
    (Replica.handle_validate r ~core:1 ~txn:t ~ts:(ts 1.0) = Some Txn.Validated_ok);
  Alcotest.(check bool) "commit accepted" true
    (Replica.handle_commit r ~core:1 ~txn:t ~ts:(ts 1.0) ~commit:true = Some ());
  (match Replica.handle_get r ~key:0 with
  | Some (1, wts) -> Alcotest.(check bool) "version" true (Timestamp.equal wts (ts 1.0))
  | _ -> Alcotest.fail "value not installed");
  Alcotest.(check int) "counters" 1 (Replica.committed r);
  Alcotest.(check int) "ok count" 1 (Replica.validations_ok r)

let test_validate_deduplicates () =
  let r = fresh () in
  let t = rmw ~seq:1 0 in
  Alcotest.(check bool) "first" true
    (Replica.handle_validate r ~core:1 ~txn:t ~ts:(ts 1.0) = Some Txn.Validated_ok);
  (* A retransmitted validate must not re-run the checks (the pending
     sets would be corrupted) — it reports the recorded status. *)
  Alcotest.(check bool) "duplicate returns same" true
    (Replica.handle_validate r ~core:1 ~txn:t ~ts:(ts 1.0) = Some Txn.Validated_ok);
  Alcotest.(check int) "validated once" 1 (Replica.validations_ok r);
  let e = Mk_storage.Vstore.find_exn (Replica.vstore r) 0 in
  Alcotest.(check int) "single reader mark" 1
    (Timestamp.Set.cardinal e.Mk_storage.Vstore.readers)

let test_validate_conflict_aborts () =
  let r = fresh () in
  let a = rmw ~seq:1 0 in
  let b = txn ~client:2 ~seq:1 ~reads:[ (0, Timestamp.zero) ] ~writes:[ (0, 9) ] () in
  Alcotest.(check bool) "a ok" true
    (Replica.handle_validate r ~core:1 ~txn:a ~ts:(ts 1.0) = Some Txn.Validated_ok);
  Alcotest.(check bool) "b aborts" true
    (Replica.handle_validate r ~core:2 ~txn:b
       ~ts:(Timestamp.make ~time:2.0 ~client_id:2)
    = Some Txn.Validated_abort);
  Alcotest.(check int) "abort counted" 1 (Replica.validations_abort r)

let test_commit_after_local_abort_still_applies () =
  (* A replica that voted VALIDATED-ABORT can still receive a commit
     (the slow path committed elsewhere); it must apply the writes. *)
  let r = fresh () in
  let a = rmw ~seq:1 0 in
  let b = txn ~client:2 ~seq:1 ~reads:[ (0, Timestamp.zero) ] ~writes:[ (0, 77) ] () in
  ignore (Replica.handle_validate r ~core:1 ~txn:a ~ts:(ts 1.0));
  Alcotest.(check bool) "b locally aborts" true
    (Replica.handle_validate r ~core:2 ~txn:b
       ~ts:(Timestamp.make ~time:2.0 ~client_id:2)
    = Some Txn.Validated_abort);
  (* The cluster nevertheless committed b. *)
  ignore
    (Replica.handle_commit r ~core:2 ~txn:b
       ~ts:(Timestamp.make ~time:2.0 ~client_id:2)
       ~commit:true);
  match Replica.handle_get r ~key:0 with
  | Some (77, _) -> ()
  | Some (v, _) -> Alcotest.failf "expected 77, got %d" v
  | None -> Alcotest.fail "no reply"

let test_commit_unknown_txn_applies () =
  (* A replica that missed validation entirely still applies a commit
     (the message carries the transaction). *)
  let r = fresh () in
  let t = rmw ~seq:5 3 in
  Alcotest.(check bool) "commit accepted" true
    (Replica.handle_commit r ~core:0 ~txn:t ~ts:(ts 4.0) ~commit:true = Some ());
  match Replica.handle_get r ~key:3 with
  | Some (5, _) -> ()
  | _ -> Alcotest.fail "write not applied"

let test_commit_idempotent () =
  let r = fresh () in
  let t = rmw ~seq:1 0 in
  ignore (Replica.handle_validate r ~core:1 ~txn:t ~ts:(ts 1.0));
  ignore (Replica.handle_commit r ~core:1 ~txn:t ~ts:(ts 1.0) ~commit:true);
  ignore (Replica.handle_commit r ~core:1 ~txn:t ~ts:(ts 1.0) ~commit:true);
  Alcotest.(check int) "committed once" 1 (Replica.committed r)

let test_abort_cleans_pending () =
  let r = fresh () in
  let t = rmw ~seq:1 0 in
  ignore (Replica.handle_validate r ~core:1 ~txn:t ~ts:(ts 1.0));
  ignore (Replica.handle_commit r ~core:1 ~txn:t ~ts:(ts 1.0) ~commit:false);
  Alcotest.(check (pair int int)) "no pending marks" (0, 0)
    (Mk_storage.Vstore.pending_counts (Replica.vstore r));
  Alcotest.(check int) "aborted" 1 (Replica.aborted r);
  (* Aborted transaction's write is not visible. *)
  match Replica.handle_get r ~key:0 with
  | Some (0, _) -> ()
  | _ -> Alcotest.fail "aborted write leaked"

let test_accept_view_discipline () =
  let r = fresh () in
  let t = rmw ~seq:1 0 in
  ignore (Replica.handle_validate r ~core:1 ~txn:t ~ts:(ts 1.0));
  (* Accept at view 2. *)
  Alcotest.(check bool) "view 2 accepted" true
    (Replica.handle_accept r ~core:1 ~txn:t ~ts:(ts 1.0) ~decision:`Commit ~view:2
    = Some `Accepted);
  (* A lower view is stale. *)
  (match Replica.handle_accept r ~core:1 ~txn:t ~ts:(ts 1.0) ~decision:`Abort ~view:1 with
  | Some (`Stale v) -> Alcotest.(check int) "reports current view" 2 v
  | _ -> Alcotest.fail "expected Stale");
  (* An equal view re-accepts (idempotent retransmission). *)
  Alcotest.(check bool) "same view ok" true
    (Replica.handle_accept r ~core:1 ~txn:t ~ts:(ts 1.0) ~decision:`Commit ~view:2
    = Some `Accepted)

let test_accept_without_record_creates_one () =
  let r = fresh () in
  let t = rmw ~seq:9 2 in
  Alcotest.(check bool) "accepted" true
    (Replica.handle_accept r ~core:0 ~txn:t ~ts:(ts 3.0) ~decision:`Abort ~view:1
    = Some `Accepted);
  match Mk_storage.Trecord.find (Replica.trecord r) ~core:0 t.Txn.tid with
  | Some e ->
      Alcotest.(check bool) "recorded as accepted abort" true
        (e.Mk_storage.Trecord.status = Txn.Accepted_abort);
      Alcotest.(check (option int)) "accept view" (Some 1)
        e.Mk_storage.Trecord.accept_view
  | None -> Alcotest.fail "no record created"

let test_accept_after_final_reports_outcome () =
  let r = fresh () in
  let t = rmw ~seq:1 0 in
  ignore (Replica.handle_validate r ~core:1 ~txn:t ~ts:(ts 1.0));
  ignore (Replica.handle_commit r ~core:1 ~txn:t ~ts:(ts 1.0) ~commit:true);
  match Replica.handle_accept r ~core:1 ~txn:t ~ts:(ts 1.0) ~decision:`Abort ~view:5 with
  | Some (`Finalized Txn.Committed) -> ()
  | _ -> Alcotest.fail "expected Finalized COMMITTED"

let test_coord_change_reports_state () =
  let r = fresh () in
  let t = rmw ~seq:1 0 in
  ignore (Replica.handle_validate r ~core:1 ~txn:t ~ts:(ts 1.0));
  (match Replica.handle_coord_change r ~core:1 ~tid:t.Txn.tid ~view:1 with
  | Some (`View_ok (Some view)) ->
      Alcotest.(check bool) "status" true (view.Replica.status = Txn.Validated_ok);
      Alcotest.(check int) "joined view" 1 view.Replica.view
  | _ -> Alcotest.fail "expected record state");
  (* Lower or equal view now refused. *)
  match Replica.handle_coord_change r ~core:1 ~tid:t.Txn.tid ~view:1 with
  | Some (`Stale v) -> Alcotest.(check int) "stale view" 1 v
  | _ -> Alcotest.fail "expected Stale"

let test_coord_change_unknown_txn () =
  let r = fresh () in
  match
    Replica.handle_coord_change r ~core:0
      ~tid:(Timestamp.Tid.make ~seq:42 ~client_id:9)
      ~view:1
  with
  | Some (`View_ok None) -> ()
  | _ -> Alcotest.fail "expected View_ok None"

let test_crash_loses_state_and_refuses () =
  let r = fresh () in
  let t = rmw ~seq:1 0 in
  ignore (Replica.handle_validate r ~core:1 ~txn:t ~ts:(ts 1.0));
  ignore (Replica.handle_commit r ~core:1 ~txn:t ~ts:(ts 1.0) ~commit:true);
  Replica.crash r;
  Alcotest.(check bool) "crashed" true (Replica.is_crashed r);
  Alcotest.(check bool) "get refused" true (Replica.handle_get r ~key:0 = None);
  Alcotest.(check bool) "validate refused" true
    (Replica.handle_validate r ~core:1 ~txn:t ~ts:(ts 1.0) = None);
  Alcotest.(check bool) "commit refused" true
    (Replica.handle_commit r ~core:1 ~txn:t ~ts:(ts 1.0) ~commit:true = None);
  Alcotest.(check int) "trecord wiped" 0 (Mk_storage.Trecord.size (Replica.trecord r));
  Alcotest.(check int) "vstore wiped" 0 (Mk_storage.Vstore.size (Replica.vstore r))

let test_epoch_change_pauses_validation () =
  let r = fresh () in
  let t = rmw ~seq:1 0 in
  ignore (Replica.handle_validate r ~core:1 ~txn:t ~ts:(ts 1.0));
  (match Replica.handle_epoch_change r ~epoch:1 with
  | Some views -> Alcotest.(check int) "reports its record" 1 (List.length views)
  | None -> Alcotest.fail "expected participation");
  Alcotest.(check bool) "paused" false (Replica.is_available r);
  (* New validations refused while paused. *)
  let t2 = rmw ~seq:2 1 in
  Alcotest.(check bool) "validate refused" true
    (Replica.handle_validate r ~core:1 ~txn:t2 ~ts:(ts 2.0) = None);
  (* Stale epoch refused. *)
  Alcotest.(check bool) "stale epoch" true (Replica.handle_epoch_change r ~epoch:1 = None);
  (* Completion resumes processing. *)
  let record : Replica.record_view =
    { txn = t; ts = ts 1.0; status = Txn.Committed; view = 0; accept_view = None }
  in
  Alcotest.(check bool) "complete ok" true
    (Replica.handle_epoch_complete r ~epoch:1 ~records:[ (1, record) ] ~store:None
    = Some ());
  Alcotest.(check bool) "resumed" true (Replica.is_available r);
  Alcotest.(check int) "epoch bumped" 1 (Replica.epoch r);
  (* The merged commit was applied. *)
  match Replica.handle_get r ~key:0 with
  | Some (1, _) -> ()
  | _ -> Alcotest.fail "merged commit not applied"

let test_epoch_complete_with_snapshot_restores () =
  let r = fresh () in
  Replica.crash r;
  Replica.begin_recovery r;
  Alcotest.(check bool) "up but paused" false (Replica.is_available r);
  let store =
    [
      { Replica.key = 0; value = 7; wts = ts 1.0; rts = ts 2.0 };
      { key = 1; value = 8; wts = ts 3.0; rts = Timestamp.zero };
    ]
  in
  Alcotest.(check bool) "complete ok" true
    (Replica.handle_epoch_complete r ~epoch:2 ~records:[] ~store:(Some store) = Some ());
  Alcotest.(check bool) "available" true (Replica.is_available r);
  (match Replica.handle_get r ~key:0 with
  | Some (7, wts) -> Alcotest.(check bool) "wts restored" true (Timestamp.equal wts (ts 1.0))
  | _ -> Alcotest.fail "snapshot not restored");
  match Replica.handle_get r ~key:1 with
  | Some (8, _) -> ()
  | _ -> Alcotest.fail "snapshot key 1 missing"

let test_epoch_complete_duplicate_does_not_reinstall () =
  (* Regression (found by the chaos suite): a retransmitted
     epoch-change-complete must not re-install the merged trecord —
     that would erase records of transactions that finished after the
     first install, leaving their writes as orphan versions in the
     store (a serializability violation for later readers). *)
  let r = fresh () in
  let t_old = rmw ~seq:1 0 in
  ignore (Replica.handle_validate r ~core:1 ~txn:t_old ~ts:(ts 1.0));
  ignore (Replica.handle_epoch_change r ~epoch:1);
  let merged : (int * Replica.record_view) list =
    [ (1, { txn = t_old; ts = ts 1.0; status = Txn.Committed; view = 0; accept_view = None }) ]
  in
  Alcotest.(check bool) "first install" true
    (Replica.handle_epoch_complete r ~epoch:1 ~records:merged ~store:None = Some ());
  (* A transaction commits after the install... *)
  let t_new = rmw ~seq:2 1 in
  ignore (Replica.handle_validate r ~core:1 ~txn:t_new ~ts:(ts 2.0));
  ignore (Replica.handle_commit r ~core:1 ~txn:t_new ~ts:(ts 2.0) ~commit:true);
  (* ...then the duplicate complete arrives: it must be acknowledged
     (so the recovery coordinator stops retransmitting) but must not
     touch the trecord. *)
  Alcotest.(check bool) "duplicate acked" true
    (Replica.handle_epoch_complete r ~epoch:1 ~records:merged ~store:None = Some ());
  match Mk_storage.Trecord.find (Replica.trecord r) ~core:1 t_new.Txn.tid with
  | Some e ->
      Alcotest.(check bool) "new commit survives" true
        (e.Mk_storage.Trecord.status = Txn.Committed)
  | None -> Alcotest.fail "duplicate install erased a newer commit"

let test_resume_abandoned_epoch_change () =
  (* An epoch change that never merges: the replica resumes at the
     epoch it paused at, keeping its own non-final records, with no
     install (a later install of that epoch still applies). *)
  let r = fresh ~cores:1 () in
  let t1 = rmw ~seq:1 3 in
  ignore (Replica.handle_validate r ~core:0 ~txn:t1 ~ts:(ts 1.0));
  ignore (Replica.handle_epoch_change r ~epoch:1);
  Alcotest.(check bool) "paused" false (Replica.is_available r);
  Alcotest.(check bool) "stale epoch refused" true (Replica.resume r ~epoch:2 = None);
  Alcotest.(check bool) "resumes at its epoch" true (Replica.resume r ~epoch:1 = Some ());
  Alcotest.(check bool) "available" true (Replica.is_available r);
  Alcotest.(check int) "still at epoch 1" 1 (Replica.epoch r);
  (match Replica.record_views r with
  | [ (0, v) ] ->
      Alcotest.(check bool) "non-final record kept" true (v.status = Txn.Validated_ok)
  | _ -> Alcotest.fail "expected the one record");
  Alcotest.(check bool) "serves validations again" true
    (Replica.handle_validate r ~core:0 ~txn:(rmw ~seq:2 5) ~ts:(ts 2.0) <> None);
  Alcotest.(check bool) "the epoch can still be installed" true
    (Replica.handle_epoch_complete r ~epoch:1 ~records:[] ~store:None = Some ())

let test_resume_refused_while_recovering () =
  (* A replica rebuilding after a crash may only be readmitted by a
     merge: abandoning the change leaves it paused. *)
  let r = fresh ~cores:1 () in
  Replica.crash r;
  Replica.begin_recovery r;
  ignore (Replica.handle_epoch_change r ~epoch:1);
  Alcotest.(check bool) "refused" true (Replica.resume r ~epoch:1 = None);
  Alcotest.(check bool) "still paused" false (Replica.is_available r);
  ignore (Replica.handle_epoch_complete r ~epoch:1 ~records:[] ~store:None);
  Alcotest.(check bool) "a merge readmits it" true (Replica.is_available r);
  ignore (Replica.handle_epoch_change r ~epoch:2);
  Alcotest.(check bool) "later changes may be abandoned" true
    (Replica.resume r ~epoch:2 = Some ())

let test_store_snapshot_roundtrip () =
  let r = fresh ~keys:8 () in
  let t = rmw ~seq:1 5 in
  ignore (Replica.handle_validate r ~core:1 ~txn:t ~ts:(ts 1.0));
  ignore (Replica.handle_commit r ~core:1 ~txn:t ~ts:(ts 1.0) ~commit:true);
  let snapshot = Replica.store_snapshot r in
  Alcotest.(check int) "snapshot size" 8 (List.length snapshot);
  let r2 = Replica.create ~id:1 ~quorum:q3 ~cores:4 in
  Replica.begin_recovery r2;
  ignore (Replica.handle_epoch_complete r2 ~epoch:1 ~records:[] ~store:(Some snapshot));
  match Replica.handle_get r2 ~key:5 with
  | Some (1, _) -> ()
  | _ -> Alcotest.fail "snapshot did not carry the committed value"

let test_handlers_allocation_budget () =
  (* Minor words for one 4-read/2-write transaction's validate and
     commit on one core, over a loaded 1 024-key store, in the style of
     test_workload's budget for [Workload.next]. What stays is per
     transaction: the trecord entry and its table cell, the pending
     reader/writer set nodes, the handlers' option results: 44 words
     (48 under MK_CHECK, which allocates the ambient actor), where
     closures per key took 225. A closure or an option per key, or a
     lookup that allocates, blows it. *)
  let keys = 1024 in
  let r = Replica.create ~id:0 ~quorum:q3 ~cores:1 in
  for key = 0 to keys - 1 do
    Replica.load r ~key ~value:0
  done;
  Replica.publish r;
  let runs = 20_000 in
  (* Built up front, disjoint key sets in turn, increasing timestamps:
     every transaction validates and commits. *)
  let wts = Array.make keys Timestamp.zero in
  let batch =
    Array.init runs (fun i ->
        let base = 6 * i mod (keys - 6) in
        let stamp = ts (float_of_int (i + 1)) in
        let t =
          txn ~seq:(i + 1)
            ~reads:(List.init 4 (fun k -> (base + k, wts.(base + k))))
            ~writes:[ (base + 4, i); (base + 5, i) ]
            ()
        in
        wts.(base + 4) <- stamp;
        wts.(base + 5) <- stamp;
        (t, stamp))
  in
  let step (t, stamp) =
    (match Replica.handle_validate r ~core:0 ~txn:t ~ts:stamp with
    | Some Txn.Validated_ok -> ()
    | _ -> Alcotest.fail "validation failed");
    ignore (Replica.handle_commit r ~core:0 ~txn:t ~ts:stamp ~commit:true : unit option)
  in
  (* The first transactions grow the trecord's tables; then measure. *)
  for i = 0 to 999 do
    step batch.(i)
  done;
  let before = Gc.minor_words () in
  for i = 1000 to runs - 1 do
    step batch.(i)
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int (runs - 1000) in
  Alcotest.(check int) "every transaction committed" runs (Replica.committed r);
  if words > 56.0 then
    Alcotest.failf "validate + commit: %.1f words per transaction (budget 56)" words

let () =
  Alcotest.run "replica"
    [
      ( "normal-case",
        [
          Alcotest.test_case "get initial" `Quick test_get_initial;
          Alcotest.test_case "validate+commit cycle" `Quick test_validate_and_commit_cycle;
          Alcotest.test_case "validate deduplicates" `Quick test_validate_deduplicates;
          Alcotest.test_case "conflict aborts" `Quick test_validate_conflict_aborts;
          Alcotest.test_case "commit overrides local abort" `Quick
            test_commit_after_local_abort_still_applies;
          Alcotest.test_case "commit without validation" `Quick
            test_commit_unknown_txn_applies;
          Alcotest.test_case "commit idempotent" `Quick test_commit_idempotent;
          Alcotest.test_case "abort cleans pending" `Quick test_abort_cleans_pending;
          Alcotest.test_case "validate+commit allocation budget" `Quick
            test_handlers_allocation_budget;
        ] );
      ( "views",
        [
          Alcotest.test_case "accept view discipline" `Quick test_accept_view_discipline;
          Alcotest.test_case "accept creates missing record" `Quick
            test_accept_without_record_creates_one;
          Alcotest.test_case "accept after final" `Quick
            test_accept_after_final_reports_outcome;
          Alcotest.test_case "coord-change reports state" `Quick
            test_coord_change_reports_state;
          Alcotest.test_case "coord-change unknown txn" `Quick
            test_coord_change_unknown_txn;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crash loses state" `Quick test_crash_loses_state_and_refuses;
          Alcotest.test_case "epoch change pauses and resumes" `Quick
            test_epoch_change_pauses_validation;
          Alcotest.test_case "snapshot restore" `Quick
            test_epoch_complete_with_snapshot_restores;
          Alcotest.test_case "snapshot roundtrip" `Quick test_store_snapshot_roundtrip;
          Alcotest.test_case "abandoned epoch change resumes" `Quick
            test_resume_abandoned_epoch_change;
          Alcotest.test_case "no resume while recovering" `Quick
            test_resume_refused_while_recovering;
          Alcotest.test_case "duplicate epoch-complete is a no-op" `Quick
            test_epoch_complete_duplicate_does_not_reinstall;
        ] );
    ]
