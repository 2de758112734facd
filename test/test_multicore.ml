(* Real-parallelism tests: the same vstore/Alg. 1 code raced by actual
   OCaml domains. The container may have few cores; preemption still
   interleaves domains, and the properties are scheduling-independent. *)

module Par_occ = Mk_multicore.Par_occ
module Checker = Mk_harness.Checker
module Vstore = Mk_storage.Vstore

let test_uncontended_all_commit () =
  (* Huge keyspace, tiny load: conflicts are overwhelmingly unlikely,
     and every transaction should commit. *)
  let report =
    Par_occ.run ~domains:2 ~txns_per_domain:500 ~keys:100_000 ~theta:0.0 ~seed:1 ()
  in
  Alcotest.(check bool) "almost no aborts" true (report.Par_occ.aborted < 5);
  Alcotest.(check int) "commits + aborts = total" 1000
    (List.length report.Par_occ.committed + report.Par_occ.aborted)

let test_contended_serializable () =
  (* Four domains hammering 16 keys: plenty of real races; the
     committed history must be serializable in timestamp order. *)
  let report =
    Par_occ.run ~domains:4 ~txns_per_domain:2000 ~keys:16 ~theta:0.0 ~seed:2 ()
  in
  Alcotest.(check bool) "some commits" true (List.length report.Par_occ.committed > 100);
  Alcotest.(check bool) "some aborts" true (report.Par_occ.aborted > 0);
  match Checker.check report.Par_occ.committed with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "serializability violated: %s"
        (Format.asprintf "%a" Checker.pp_violation v)

let test_skewed_serializable () =
  let report =
    Par_occ.run ~domains:4 ~txns_per_domain:1500 ~keys:1024 ~theta:0.9
      ~reads_per_txn:2 ~seed:3 ()
  in
  match Checker.check report.Par_occ.committed with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "serializability violated: %s"
        (Format.asprintf "%a" Checker.pp_violation v)

let test_store_matches_replay () =
  (* The final store state must equal a timestamp-order replay of the
     committed set — the multicore analogue of replica convergence. *)
  let store = Vstore.create () in
  let report =
    Par_occ.run_with_store ~store ~domains:4 ~txns_per_domain:1000 ~keys:64
      ~theta:0.5 ~seed:4 ()
  in
  match Par_occ.final_store_matches report store with
  | None -> ()
  | Some (key, expected, got) ->
      Alcotest.failf "key %d: store has %d, replay says %d" key got expected

let test_no_pending_residue () =
  let store = Vstore.create () in
  ignore
    (Par_occ.run_with_store ~store ~domains:3 ~txns_per_domain:800 ~keys:32 ~theta:0.6
       ~seed:5 ());
  Alcotest.(check (pair int int)) "pending sets empty after quiescence" (0, 0)
    (Vstore.pending_counts store)

let test_single_domain_degenerate () =
  let report =
    Par_occ.run ~domains:1 ~txns_per_domain:300 ~keys:8 ~theta:0.0 ~seed:6 ()
  in
  (* One domain, sequential: RMWs never conflict with themselves. *)
  Alcotest.(check int) "no aborts" 0 report.Par_occ.aborted;
  Alcotest.(check int) "all commit" 300 (List.length report.Par_occ.committed)

let () =
  (* Arm the lock-discipline checker before any domain spawns; the
     par-occ matrix is exactly the workload it polices. *)
  Mk_check.Owner.enable ();
  Alcotest.run "multicore"
    [
      ( "par-occ",
        [
          Alcotest.test_case "uncontended commits" `Quick test_uncontended_all_commit;
          Alcotest.test_case "contended is serializable" `Quick
            test_contended_serializable;
          Alcotest.test_case "skewed is serializable" `Quick test_skewed_serializable;
          Alcotest.test_case "store equals replay" `Quick test_store_matches_replay;
          Alcotest.test_case "no pending residue" `Quick test_no_pending_residue;
          Alcotest.test_case "single-domain degenerate" `Quick
            test_single_domain_degenerate;
        ] );
    ]
