(* Integration tests: the full Meerkat deployment (replicas, network,
   coordinators) under the simulator — correctness of outcomes,
   serializability of committed histories, message loss, crashes and
   epoch changes. *)

module Engine = Mk_sim.Engine
module Transport = Mk_net.Transport
module Intf = Mk_model.System_intf
module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn
module S = Mk_meerkat.Sim_system
module Replica = Mk_meerkat.Replica
module Checker = Mk_harness.Checker
module Batch = Mk_meerkat.Batch
module Attempts = Mk_meerkat.Attempts
module Protocol = Mk_meerkat.Protocol
module Quorum = Mk_meerkat.Quorum

let base_cfg =
  { S.default_config with threads = 4; n_clients = 16; keys = 256; seed = 5 }

let make ?(cfg = base_cfg) () =
  let engine = Engine.create ~seed:cfg.S.seed () in
  (engine, S.create engine cfg)

(* Run [n] transactions per client, closed-loop; returns the outcomes
   in completion order. *)
let run_txns engine sys ~clients ~per_client ~request =
  let outcomes = ref [] in
  let rec loop c remaining =
    if remaining > 0 then begin
      let req = request c remaining in
      S.submit sys ~client:c req ~on_done:(fun ~committed ->
          outcomes := (c, remaining, committed) :: !outcomes;
          loop c (remaining - 1))
    end
  in
  for c = 0 to clients - 1 do
    loop c per_client
  done;
  Engine.run ~max_events:50_000_000 engine;
  List.rev !outcomes

let test_single_txn_commits () =
  let engine, sys = make () in
  let result = ref None in
  S.submit sys ~client:0
    { Intf.reads = [| 7 |]; writes = [| (7, 99) |] }
    ~on_done:(fun ~committed -> result := Some committed);
  Engine.run engine;
  Alcotest.(check (option bool)) "committed" (Some true) !result;
  (* All three replicas applied the write. *)
  for r = 0 to 2 do
    Alcotest.(check (option int))
      (Printf.sprintf "replica %d" r)
      (Some 99)
      (S.read_committed sys ~replica:r ~key:7)
  done;
  Alcotest.(check int) "fast path" 1 (S.counters sys).Intf.fast_path

let test_read_only_txn () =
  let engine, sys = make () in
  let result = ref None in
  S.submit sys ~client:0
    { Intf.reads = [| 1; 2; 3 |]; writes = [||] }
    ~on_done:(fun ~committed -> result := Some committed);
  Engine.run engine;
  Alcotest.(check (option bool)) "read-only commits" (Some true) !result

let test_blind_write_txn () =
  let engine, sys = make () in
  let result = ref None in
  S.submit sys ~client:0
    { Intf.reads = [||]; writes = [| (300, 1) |] }
    (* key 300 was never loaded *)
    ~on_done:(fun ~committed -> result := Some committed);
  Engine.run engine;
  Alcotest.(check (option bool)) "blind write commits" (Some true) !result;
  Alcotest.(check (option int)) "created on replica" (Some 1)
    (S.read_committed sys ~replica:1 ~key:300)

let test_non_conflicting_txns_all_commit () =
  let engine, sys = make () in
  let outcomes =
    run_txns engine sys ~clients:8 ~per_client:20 ~request:(fun c i ->
        let key = (c * 20) + i in
        { Intf.reads = [| key |]; writes = [| (key, i) |] })
  in
  Alcotest.(check int) "all done" 160 (List.length outcomes);
  List.iter
    (fun (_, _, committed) ->
      Alcotest.(check bool) "disjoint txns commit" true committed)
    outcomes;
  Alcotest.(check int) "no aborts" 0 (S.counters sys).Intf.aborted

let test_replicas_converge () =
  let engine, sys = make () in
  ignore
    (run_txns engine sys ~clients:8 ~per_client:25 ~request:(fun c i ->
         let rng = (c * 31) + (i * 17) in
         let key = rng mod 64 in
         { Intf.reads = [| key |]; writes = [| (key, rng) |] }));
  (* Let write-phase messages drain, then compare all replica stores. *)
  Engine.run engine;
  for key = 0 to 63 do
    let v0 = S.read_committed sys ~replica:0 ~key in
    let v1 = S.read_committed sys ~replica:1 ~key in
    let v2 = S.read_committed sys ~replica:2 ~key in
    Alcotest.(check bool)
      (Printf.sprintf "key %d converged" key)
      true
      (v0 = v1 && v1 = v2)
  done

(* Collect every commit acknowledged to a client, with read versions,
   and check one-copy serializability. *)
let serializability_run ~cfg ~clients ~per_client ~key_range =
  let engine = Engine.create ~seed:cfg.S.seed () in
  let sys = S.create engine cfg in
  let committed = ref [] in
  let rec loop c remaining =
    if remaining > 0 then begin
      let key = ((c * 7919) + (remaining * 104729)) mod key_range in
      let key2 = ((c * 31) + (remaining * 997)) mod key_range in
      S.submit sys ~client:c
        { Intf.reads = [| key; key2 |]; writes = [| (key, remaining) |] }
        ~on_done:(fun ~committed:_ -> loop c (remaining - 1))
    end
  in
  (* Hook commits via the replicas' trecords after the run instead:
     the coordinator does not expose its txn, so reconstruct the
     committed set from any replica's record — but a replica may lack
     some commits. Instead, we re-drive with an instrumented client:
     read results are not externally visible, so we use the trecord of
     the replica that is guaranteed complete... Simpler and sound: use
     the union of all replicas' COMMITTED records (every committed txn
     reached at least one replica's trecord as COMMITTED because the
     write-phase message is broadcast and nothing is dropped here). *)
  for c = 0 to clients - 1 do
    loop c per_client
  done;
  Engine.run ~max_events:50_000_000 engine;
  let seen = Hashtbl.create 1024 in
  Array.iter
    (fun r ->
      List.iter
        (fun (_, (e : Mk_storage.Trecord.entry)) ->
          if e.status = Txn.Committed && not (Hashtbl.mem seen e.txn.Txn.tid) then begin
            Hashtbl.add seen e.txn.Txn.tid ();
            committed := (e.txn, e.ts) :: !committed
          end)
        (Mk_storage.Trecord.entries (Replica.trecord r)))
    (S.replicas sys);
  !committed

let test_serializable_low_contention () =
  let committed =
    serializability_run ~cfg:base_cfg ~clients:8 ~per_client:30 ~key_range:256
  in
  Alcotest.(check bool) "some commits" true (List.length committed > 100);
  match Checker.check committed with
  | Ok () -> ()
  | Error v -> Alcotest.failf "violation: %s" (Format.asprintf "%a" Checker.pp_violation v)

let test_serializable_high_contention () =
  (* 16 clients fighting over 4 keys: plenty of aborts, and whatever
     commits must still be serializable. *)
  let cfg = { base_cfg with keys = 4; seed = 23 } in
  let committed = serializability_run ~cfg ~clients:16 ~per_client:25 ~key_range:4 in
  Alcotest.(check bool) "some commits" true (List.length committed > 10);
  match Checker.check committed with
  | Ok () -> ()
  | Error v -> Alcotest.failf "violation: %s" (Format.asprintf "%a" Checker.pp_violation v)

let test_serializable_with_clock_skew () =
  (* Huge clock skew: performance suffers, correctness must not. *)
  let cfg = { base_cfg with clock_offset = 5000.0; clock_drift = 0.01; seed = 31; keys = 8 } in
  let committed = serializability_run ~cfg ~clients:8 ~per_client:20 ~key_range:8 in
  match Checker.check committed with
  | Ok () -> ()
  | Error v -> Alcotest.failf "violation: %s" (Format.asprintf "%a" Checker.pp_violation v)

let test_progress_under_message_loss () =
  (* 20% of messages silently dropped: retransmission must still drive
     every transaction to a decision. *)
  let cfg =
    {
      base_cfg with
      transport = Transport.with_drop Transport.erpc 0.2;
      n_clients = 4;
      seed = 77;
    }
  in
  let engine, sys = make ~cfg () in
  let outcomes =
    run_txns engine sys ~clients:4 ~per_client:10 ~request:(fun c i ->
        let key = (c * 16) + i in
        { Intf.reads = [| key |]; writes = [| (key, i) |] })
  in
  Alcotest.(check int) "every txn decided" 40 (List.length outcomes);
  Alcotest.(check bool) "retransmissions happened" true
    ((S.counters sys).Intf.retransmits > 0)

let test_slow_path_under_drops () =
  (* With validate messages being dropped, mixed/partial reply sets
     force the slow path at least occasionally. *)
  let cfg =
    {
      base_cfg with
      transport = Transport.with_drop Transport.erpc 0.3;
      n_clients = 8;
      keys = 8;
      seed = 13;
    }
  in
  let engine, sys = make ~cfg () in
  ignore
    (run_txns engine sys ~clients:8 ~per_client:15 ~request:(fun c i ->
         let key = (c + i) mod 8 in
         { Intf.reads = [| key |]; writes = [| (key, i) |] }));
  Alcotest.(check bool) "slow path exercised" true
    ((S.counters sys).Intf.slow_path > 0)

let test_survives_one_replica_crash () =
  (* n=3 tolerates f=1: after a crash, transactions still complete
     (on the slow path, since the fast quorum of 3 is unreachable). *)
  let engine, sys = make ~cfg:{ base_cfg with n_clients = 4 } () in
  let before = ref 0 and after = ref 0 in
  let rec loop phase c remaining =
    if remaining > 0 then begin
      (* Distinct key per transaction: a client's consecutive writes to
         one key would race its own asynchronous write-phase message
         and abort legitimately. *)
      let key = (c * 100) + remaining + (match phase with `Before -> 0 | `After -> 50) in
      S.submit sys ~client:c
        { Intf.reads = [| key |]; writes = [| (key, remaining) |] }
        ~on_done:(fun ~committed ->
          if committed then incr (if phase = `Before then before else after);
          loop phase c (remaining - 1))
    end
  in
  for c = 0 to 3 do
    loop `Before c 5
  done;
  Engine.run engine;
  S.crash_replica sys 2;
  for c = 0 to 3 do
    loop `After c 5
  done;
  Engine.run engine;
  Alcotest.(check int) "before crash" 20 !before;
  Alcotest.(check int) "after crash" 20 !after;
  (* All post-crash decisions took the slow path. *)
  Alcotest.(check bool) "slow path used" true ((S.counters sys).Intf.slow_path >= 20)

let test_no_progress_without_majority () =
  let engine, sys = make ~cfg:{ base_cfg with n_clients = 1 } () in
  S.crash_replica sys 1;
  S.crash_replica sys 2;
  let decided = ref false in
  S.submit sys ~client:0
    { Intf.reads = [| 0 |]; writes = [| (0, 1) |] }
    ~on_done:(fun ~committed:_ -> decided := true);
  (* Bound the run: retransmissions would otherwise go on forever. *)
  Engine.run ~until:100_000.0 engine;
  Alcotest.(check bool) "no decision without majority" false !decided

let test_epoch_change_recovers_replica () =
  let cfg = { base_cfg with n_clients = 4 } in
  let engine, sys = make ~cfg () in
  (* Phase 1: commit some transactions. *)
  ignore
    (run_txns engine sys ~clients:4 ~per_client:10 ~request:(fun c i ->
         let key = (c * 10) + i in
         { Intf.reads = [| key |]; writes = [| (key, i) |] }));
  (* Crash replica 0 (it loses everything), then run the epoch change
     to re-integrate it. *)
  S.crash_replica sys 0;
  Alcotest.(check bool) "epoch change succeeds" true
    (S.run_epoch_change sys ~recovering:[ 0 ]);
  (* The recovered replica has the committed state back. *)
  Alcotest.(check (option int)) "state transferred" (Some 1)
    (S.read_committed sys ~replica:0 ~key:1);
  Alcotest.(check int) "epoch advanced" 1 (Replica.epoch (S.replicas sys).(0));
  (* And the system keeps processing transactions afterwards. *)
  let outcomes =
    run_txns engine sys ~clients:4 ~per_client:5 ~request:(fun c i ->
        let key = 200 + ((c * 5) + i) mod 40 in
        { Intf.reads = [| key |]; writes = [| (key, i) |] })
  in
  Alcotest.(check int) "post-recovery txns decided" 20 (List.length outcomes)

let test_epoch_change_requires_majority () =
  let _, sys = make () in
  S.crash_replica sys 1;
  S.crash_replica sys 2;
  Alcotest.(check bool) "refused without majority" false
    (S.run_epoch_change sys ~recovering:[ 1; 2 ])

let test_epoch_change_decides_inflight () =
  (* Transactions interrupted by the epoch change are decided by the
     merge and never dangle: after the change, no replica holds a
     non-final record. *)
  let cfg = { base_cfg with n_clients = 8; keys = 16 } in
  let engine, sys = make ~cfg () in
  (* Start transactions but stop the engine mid-flight. *)
  for c = 0 to 7 do
    S.submit sys ~client:c
      { Intf.reads = [| c mod 16 |]; writes = [| (c mod 16, c) |] }
      ~on_done:(fun ~committed:_ -> ())
  done;
  Engine.run ~until:10.0 engine;
  (* Epoch change while validates are still in flight. *)
  Alcotest.(check bool) "epoch change ok" true (S.run_epoch_change sys ~recovering:[]);
  Array.iter
    (fun r ->
      List.iter
        (fun (_, (e : Mk_storage.Trecord.entry)) ->
          Alcotest.(check bool) "record final" true (Txn.is_final e.status))
        (Mk_storage.Trecord.entries (Replica.trecord r)))
    (S.replicas sys);
  (* Pending reader/writer marks were cleaned everywhere. *)
  Array.iter
    (fun r ->
      Alcotest.(check (pair int int)) "no pending marks" (0, 0)
        (Mk_storage.Vstore.pending_counts (Replica.vstore r)))
    (S.replicas sys)

let test_interactive_conservation () =
  (* Concurrent interactive increments of one shared counter key: the
     final value must equal the number of commits — writes computed
     from reads are only committed if the reads were current. *)
  let cfg = { base_cfg with n_clients = 8; keys = 4 } in
  let engine, sys = make ~cfg () in
  let commits = ref 0 in
  let rec bump c remaining =
    if remaining > 0 then
      S.submit_interactive sys ~client:c ~reads:[| 0 |]
        ~compute:(fun values -> [| (0, values.(0) + 1) |])
        ~on_done:(fun ~committed ->
          if committed then begin
            incr commits;
            bump c (remaining - 1)
          end
          else bump c remaining)
  in
  for c = 0 to 7 do
    bump c 10
  done;
  Engine.run ~max_events:20_000_000 engine;
  Alcotest.(check int) "all increments committed" 80 !commits;
  for r = 0 to 2 do
    Alcotest.(check (option int))
      (Printf.sprintf "replica %d counter" r)
      (Some 80)
      (S.read_committed sys ~replica:r ~key:0)
  done

let test_deterministic_runs () =
  let run () =
    let engine, sys = make () in
    let outcomes =
      run_txns engine sys ~clients:8 ~per_client:10 ~request:(fun c i ->
          let key = (c + i) mod 8 in
          { Intf.reads = [| key |]; writes = [| (key, i) |] })
    in
    (outcomes, Engine.now engine, (S.counters sys).Intf.committed)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_async_epoch_change () =
  (* The message-driven §5.3.1 protocol: crash, recover through the
     network, keep serving. *)
  let cfg = { base_cfg with n_clients = 4 } in
  let engine, sys = make ~cfg () in
  ignore
    (run_txns engine sys ~clients:4 ~per_client:10 ~request:(fun c i ->
         let key = (c * 10) + i in
         { Intf.reads = [| key |]; writes = [| (key, i) |] }));
  S.crash_replica sys 0;
  let completed = ref None in
  S.trigger_epoch_change sys ~recovering:[ 0 ] ~on_complete:(fun ~success ->
      completed := Some success);
  (* Submit transactions WHILE the epoch change is in flight: they are
     refused during the pause and retried by their coordinators. *)
  let during = ref 0 in
  for c = 0 to 3 do
    S.submit sys ~client:c
      { Intf.reads = [| 200 + c |]; writes = [| (200 + c, c) |] }
      ~on_done:(fun ~committed -> if committed then incr during)
  done;
  Engine.run ~until:1_000_000.0 engine;
  Alcotest.(check (option bool)) "epoch change completed" (Some true) !completed;
  Alcotest.(check int) "in-flight txns eventually commit" 4 !during;
  Alcotest.(check (option int)) "state transferred to replica 0" (Some 1)
    (S.read_committed sys ~replica:0 ~key:1);
  Alcotest.(check bool) "epoch advanced" true
    (Replica.epoch (S.replicas sys).(0) >= 1);
  (* Every replica resumed. *)
  Array.iter
    (fun r -> Alcotest.(check bool) "available" true (Replica.is_available r))
    (S.replicas sys)

let test_async_epoch_change_no_majority () =
  let engine, sys = make () in
  S.crash_replica sys 1;
  S.crash_replica sys 2;
  let completed = ref None in
  S.trigger_epoch_change sys ~recovering:[ 1; 2 ] ~on_complete:(fun ~success ->
      completed := Some success);
  Engine.run ~until:10_000.0 engine;
  Alcotest.(check (option bool)) "refused" (Some false) !completed

let test_async_epoch_change_under_drops () =
  (* Retransmission carries the epoch change through a lossy network. *)
  let cfg =
    { base_cfg with transport = Transport.with_drop Transport.erpc 0.25; n_clients = 2 }
  in
  let engine, sys = make ~cfg () in
  ignore
    (run_txns engine sys ~clients:2 ~per_client:5 ~request:(fun c i ->
         let key = (c * 5) + i in
         { Intf.reads = [| key |]; writes = [| (key, i) |] }));
  S.crash_replica sys 2;
  let completed = ref None in
  S.trigger_epoch_change sys ~recovering:[ 2 ] ~on_complete:(fun ~success ->
      completed := Some success);
  Engine.run ~until:5_000_000.0 ~max_events:20_000_000 engine;
  Alcotest.(check (option bool)) "completed despite drops" (Some true) !completed;
  Alcotest.(check (option int)) "replica 2 recovered" (Some 1)
    (S.read_committed sys ~replica:2 ~key:1)

(* --- n = 5 (f = 2): supermajority 4, majority 3. --- *)

let cfg5 = { base_cfg with n_replicas = 5; n_clients = 8 }

let test_n5_fast_path () =
  let engine, sys = make ~cfg:cfg5 () in
  let outcomes =
    run_txns engine sys ~clients:4 ~per_client:10 ~request:(fun c i ->
        let key = (c * 10) + i in
        { Intf.reads = [| key |]; writes = [| (key, i) |] })
  in
  Alcotest.(check int) "all decided" 40 (List.length outcomes);
  List.iter (fun (_, _, ok) -> Alcotest.(check bool) "committed" true ok) outcomes;
  (* With 5 healthy replicas and no conflicts everything goes fast. *)
  Alcotest.(check int) "all fast" 40 (S.counters sys).Intf.fast_path;
  for r = 0 to 4 do
    Alcotest.(check (option int))
      (Printf.sprintf "replica %d applied" r)
      (Some 1)
      (S.read_committed sys ~replica:r ~key:1)
  done

let test_n5_survives_two_crashes () =
  let engine, sys = make ~cfg:cfg5 () in
  S.crash_replica sys 3;
  S.crash_replica sys 4;
  let outcomes =
    run_txns engine sys ~clients:4 ~per_client:5 ~request:(fun c i ->
        let key = (c * 5) + i in
        { Intf.reads = [| key |]; writes = [| (key, i) |] })
  in
  Alcotest.(check int) "all decided with majority 3/5" 20 (List.length outcomes);
  List.iter (fun (_, _, ok) -> Alcotest.(check bool) "committed" true ok) outcomes;
  Alcotest.(check bool) "slow path used" true ((S.counters sys).Intf.slow_path >= 20)

let test_n5_one_crash_keeps_fast_path () =
  (* n=5 tolerates one crash *without* losing the fast path: the
     supermajority is 4 of 5 — this is exactly the paper's remark that
     failures only force the slow path when availability drops below
     f+ceil(f/2)+1. *)
  let engine, sys = make ~cfg:cfg5 () in
  S.crash_replica sys 4;
  let outcomes =
    run_txns engine sys ~clients:4 ~per_client:5 ~request:(fun c i ->
        let key = 100 + (c * 5) + i in
        { Intf.reads = [| key |]; writes = [| (key, i) |] })
  in
  Alcotest.(check int) "all decided" 20 (List.length outcomes);
  Alcotest.(check int) "still fast path" 20 (S.counters sys).Intf.fast_path

let test_n5_epoch_change () =
  let engine, sys = make ~cfg:cfg5 () in
  ignore
    (run_txns engine sys ~clients:4 ~per_client:10 ~request:(fun c i ->
         let key = (c * 10) + i in
         { Intf.reads = [| key |]; writes = [| (key, i) |] }));
  S.crash_replica sys 1;
  S.crash_replica sys 2;
  Alcotest.(check bool) "epoch change with 3/5" true
    (S.run_epoch_change sys ~recovering:[ 1; 2 ]);
  for r = 1 to 2 do
    Alcotest.(check (option int))
      (Printf.sprintf "replica %d recovered" r)
      (Some 3)
      (S.read_committed sys ~replica:r ~key:3)
  done

(* --- the reusable emission batch and its pool (DESIGN.md §14) --- *)

let test_batch_emit_iter_clear () =
  let b = Batch.create ~capacity:2 () in
  Alcotest.(check bool) "fresh batch empty" true (Batch.is_empty b);
  for i = 1 to 5 do
    Batch.emit b i
  done;
  Alcotest.(check int) "length tracks emissions" 5 (Batch.length b);
  Alcotest.(check (list int)) "order preserved across growth"
    [ 1; 2; 3; 4; 5 ] (Batch.to_list b);
  Alcotest.(check int) "indexed access" 3 (Batch.get b 2);
  (* A follow-up emitted mid-iteration (a driver folding its own steps
     into the batch it is draining) must be seen by the same pass. *)
  let seen = ref [] in
  Batch.iter
    (fun x ->
      seen := x :: !seen;
      if x = 5 then Batch.emit b 6)
    b;
  Alcotest.(check (list int)) "mid-iteration emission seen"
    [ 1; 2; 3; 4; 5; 6 ] (List.rev !seen);
  Batch.clear b;
  Alcotest.(check bool) "clear empties" true (Batch.is_empty b);
  Batch.emit b 9;
  Alcotest.(check (list int)) "reusable after clear" [ 9 ] (Batch.to_list b)

let test_pool_never_aliases () =
  let p = Batch.Pool.create () in
  let a = Batch.Pool.rent p in
  let b = Batch.Pool.rent p in
  Alcotest.(check bool) "concurrent rentals are distinct batches" false
    (a == b);
  Batch.emit a 1;
  Batch.emit b 2;
  Alcotest.(check (list int)) "no cross-talk into a" [ 1 ] (Batch.to_list a);
  Alcotest.(check (list int)) "no cross-talk into b" [ 2 ] (Batch.to_list b);
  Batch.Pool.return p a;
  Batch.Pool.return p b;
  let c = Batch.Pool.rent p in
  let d = Batch.Pool.rent p in
  Alcotest.(check bool) "rentals recycle returned batches" true
    ((c == a || c == b) && (d == a || d == b));
  Alcotest.(check bool) "but never the same one twice" false (c == d);
  Alcotest.(check bool) "recycled batches come back clear" true
    (Batch.is_empty c && Batch.is_empty d)

let test_pool_with_batch_reentrant () =
  let p = Batch.Pool.create () in
  Batch.Pool.with_batch p (fun outer ->
      Batch.emit outer 10;
      Batch.Pool.with_batch p (fun inner ->
          Alcotest.(check bool) "nested rental is a distinct batch" false
            (inner == outer);
          Batch.emit inner 99;
          Alcotest.(check (list int)) "inner sees only its own" [ 99 ]
            (Batch.to_list inner));
      Batch.emit outer 20;
      Alcotest.(check (list int)) "outer intact across nesting" [ 10; 20 ]
        (Batch.to_list outer));
  (* The exception path still returns the batch — and returns it
     cleared, so the next renter never sees stale actions. *)
  (match Batch.Pool.with_batch p (fun b ->
       Batch.emit b 1;
       failwith "boom")
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  let r = Batch.Pool.rent p in
  Alcotest.(check bool) "batch recovered clean after the exception" true
    (Batch.is_empty r)

(* --- the attempt table, over a fake transport and an injected clock --- *)

type sent = V of int * int * int | A of int * int * int | W of int * int

(* 3 replicas, rto 100, so the Retransmit cap is 800. [sent] logs
   every request (newest first), one entry per replica named in a
   broadcast's mask; [decided] every decision callback. *)
let attempt_table () =
  let sent = ref [] and decided = ref [] and retransmits = ref 0 in
  let each mask f =
    for replica = 0 to 2 do
      if mask land (1 lsl replica) <> 0 then sent := f replica :: !sent
    done
  in
  let send =
    {
      Attempts.validate =
        (fun ~shard ~mask ~id _ _ -> each mask (fun r -> V (shard, r, id)));
      accept =
        (fun ~shard ~mask ~id _ _ _ -> each mask (fun r -> A (shard, r, id)));
      write_back =
        (fun ~shard ~mask _ _ ~commit:_ -> each mask (fun r -> W (shard, r)));
    }
  in
  let params =
    { Protocol.n_replicas = 3; quorum = Quorum.create ~n:3; rto = 100.0; grace = 10.0 }
  in
  let t =
    Attempts.create params ~send ~on_retransmit:(fun _ -> incr retransmits)
  in
  let start ?(shard = 0) ~now client =
    let tid, ts = Attempts.mint t ~client ~now in
    let txn =
      Txn.make ~tid ~read_set:[] ~write_set:[ { Txn.key = client; value = 1 } ]
    in
    Attempts.start t ~now ~shard ~txn ~ts ~on_decided:(fun c ->
        decided := (client, c) :: !decided)
  in
  (t, start, sent, decided, retransmits)

let ok ~replica = Protocol.Validate_reply { replica; status = Txn.Validated_ok }

let reply_t =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (match r with
        | Attempts.Fed -> "Fed"
        | Attempts.Stale -> "Stale"
        | Attempts.Misrouted -> "Misrouted"))
    ( = )

let test_attempts_stale_reply () =
  let t, start, _, decided, _ = attempt_table () in
  start ~now:0.0 7;
  List.iter
    (fun replica ->
      Alcotest.check reply_t "live reply fed" Attempts.Fed
        (Attempts.reply t ~now:1.0 ~id:0 ~shard:0 (ok ~replica)))
    [ 0; 1; 2 ];
  Alcotest.(check (list (pair int bool))) "decided on the fast path"
    [ (7, true) ] !decided;
  Alcotest.(check int) "fast" 1 (Attempts.fast t);
  Alcotest.(check int) "left the table" 0 (Attempts.in_flight t);
  Alcotest.check reply_t "reply for the finished id" Attempts.Stale
    (Attempts.reply t ~now:2.0 ~id:0 ~shard:0 (ok ~replica:1));
  Alcotest.(check int) "decided once" 1 (List.length !decided)

let test_attempts_misrouted () =
  let t, start, _, decided, _ = attempt_table () in
  start ~shard:1 ~now:0.0 3;
  List.iter
    (fun replica ->
      Alcotest.check reply_t "wrong group refused" Attempts.Misrouted
        (Attempts.reply t ~now:1.0 ~id:0 ~shard:0 (ok ~replica)))
    [ 0; 1; 2 ];
  Alcotest.(check int) "nothing decided" 0 (List.length !decided);
  Alcotest.(check int) "still in flight" 1 (Attempts.in_flight t);
  Alcotest.check reply_t "right group fed" Attempts.Fed
    (Attempts.reply t ~now:1.0 ~id:0 ~shard:1 (ok ~replica:0))

let test_attempts_retransmit_clamped () =
  let t, start, sent, _, retransmits = attempt_table () in
  start ~now:0.0 1;
  Alcotest.(check (float 0.0)) "first deadline" 100.0 (Attempts.next_due t);
  (* Each expiry doubles the timeout — 200, 400, 800 — and the next
     doubling (1600) is clamped to the 800 cap, twice over. *)
  List.iter
    (fun (now, next) ->
      Attempts.fire_due t ~now;
      Alcotest.(check (float 0.0)) (Printf.sprintf "after %g" now) next
        (Attempts.next_due t))
    [ (100.0, 300.0); (300.0, 700.0); (700.0, 1500.0); (1500.0, 2300.0);
      (2300.0, 3100.0) ];
  Alcotest.(check int) "five expiries" 5 !retransmits;
  Alcotest.(check int) "each resent to all three" 18 (List.length !sent)

let test_attempts_due_check () =
  let t, start, sent, _, retransmits = attempt_table () in
  start ~now:0.0 1;
  start ~now:50.0 2;
  let resent () = List.length !sent - 6 in
  Attempts.fire_due t ~now:99.9;
  Alcotest.(check int) "nothing before the first deadline" 0 (resent ());
  Attempts.fire_due t ~now:120.0;
  Alcotest.(check (list bool)) "only attempt 0 resent" [ true; true; true ]
    (List.filteri (fun i _ -> i < resent ()) !sent
    |> List.map (function V (_, _, id) -> id = 0 | _ -> false));
  Alcotest.(check int) "one expiry" 1 !retransmits;
  Attempts.fire_due t ~now:149.9;
  Alcotest.(check int) "nothing more before 150" 3 (resent ());
  Attempts.fire_due t ~now:150.0;
  Alcotest.(check int) "attempt 1 resent at 150" 6 (resent ());
  Alcotest.(check int) "two expiries" 2 !retransmits;
  (* The client loop calls the check on every spin: with nothing due
     it must not allocate. *)
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Attempts.fire_due t ~now:151.0
  done;
  Alcotest.(check bool) "idle checks allocate nothing" true
    (Gc.minor_words () -. before < 100.0)

let test_attempts_retransmit_names_missing () =
  let t, start, sent, _, _ = attempt_table () in
  start ~now:0.0 1;
  ignore (Attempts.reply t ~now:1.0 ~id:0 ~shard:0 (ok ~replica:1) : Attempts.reply);
  sent := [];
  (* One reply of three is short of a majority: the expiry re-asks
     only the two silent replicas. *)
  Attempts.fire_due t ~now:100.0;
  Alcotest.(check (list (pair int int))) "validates to replicas 0 and 2 only"
    [ (0, 0); (2, 0) ]
    (List.rev_map (function V (_, r, id) -> (r, id) | _ -> (-1, -1)) !sent)

let test_attempts_resume () =
  let t, start, sent, decided, _ = attempt_table () in
  start ~now:0.0 1;
  start ~now:0.0 2;
  start ~now:0.0 3;
  (* Attempt 1 decides; attempt 0 has heard from replica 0. *)
  List.iter
    (fun replica ->
      ignore (Attempts.reply t ~now:1.0 ~id:1 ~shard:0 (ok ~replica) : Attempts.reply))
    [ 0; 1; 2 ];
  ignore (Attempts.reply t ~now:1.0 ~id:0 ~shard:0 (ok ~replica:0) : Attempts.reply);
  Alcotest.(check (list (pair int bool))) "attempt 1 decided" [ (2, true) ] !decided;
  sent := [];
  Attempts.resume t ~now:50.0;
  Alcotest.(check (list (pair int int)))
    "each in-flight attempt resent its missing validates, once"
    [ (0, 1); (0, 2); (2, 0); (2, 1); (2, 2) ]
    (List.rev_map (function V (_, r, id) -> (id, r) | _ -> (-1, -1)) !sent);
  Alcotest.(check int) "nothing new decided" 1 (List.length !decided);
  Alcotest.(check int) "both still in flight" 2 (Attempts.in_flight t)

let test_attempts_mint_monotone () =
  let t, _, _, _, _ = attempt_table () in
  let mint now = Attempts.mint t ~client:4 ~now in
  (* A stalled clock, then one that steps backwards. *)
  let stamps = List.map mint [ 10.0; 10.0; 10.0; 9.0; 11.0 ] in
  let times = List.map (fun (_, (ts : Timestamp.t)) -> ts.time) stamps in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing" true (increasing times);
  Alcotest.(check (list int)) "tid sequence" [ 1; 2; 3; 4; 5 ]
    (List.map (fun ((tid : Timestamp.Tid.t), _) -> tid.seq) stamps);
  Alcotest.(check (float 0.0)) "last stamp" 11.0 (Attempts.last_stamp t ~client:4);
  let _, ts = Attempts.mint t ~client:5 ~now:10.0 in
  Alcotest.(check (float 0.0)) "clients are independent" 10.0 ts.time

let () =
  Alcotest.run "protocol"
    [
      ( "normal-case",
        [
          Alcotest.test_case "single txn commits everywhere" `Quick
            test_single_txn_commits;
          Alcotest.test_case "read-only txn" `Quick test_read_only_txn;
          Alcotest.test_case "blind write" `Quick test_blind_write_txn;
          Alcotest.test_case "disjoint txns all commit" `Quick
            test_non_conflicting_txns_all_commit;
          Alcotest.test_case "replicas converge" `Quick test_replicas_converge;
          Alcotest.test_case "interactive txns conserve" `Quick
            test_interactive_conservation;
          Alcotest.test_case "deterministic runs" `Quick test_deterministic_runs;
        ] );
      ( "serializability",
        [
          Alcotest.test_case "low contention" `Quick test_serializable_low_contention;
          Alcotest.test_case "high contention" `Quick test_serializable_high_contention;
          Alcotest.test_case "huge clock skew" `Quick test_serializable_with_clock_skew;
        ] );
      ( "faults",
        [
          Alcotest.test_case "progress under 20% loss" `Quick
            test_progress_under_message_loss;
          Alcotest.test_case "slow path under drops" `Quick test_slow_path_under_drops;
          Alcotest.test_case "survives one crash" `Quick test_survives_one_replica_crash;
          Alcotest.test_case "no majority, no progress" `Quick
            test_no_progress_without_majority;
          Alcotest.test_case "epoch change recovers replica" `Quick
            test_epoch_change_recovers_replica;
          Alcotest.test_case "epoch change needs majority" `Quick
            test_epoch_change_requires_majority;
          Alcotest.test_case "epoch change decides in-flight txns" `Quick
            test_epoch_change_decides_inflight;
          Alcotest.test_case "async epoch change" `Quick test_async_epoch_change;
          Alcotest.test_case "async epoch change needs majority" `Quick
            test_async_epoch_change_no_majority;
          Alcotest.test_case "async epoch change under drops" `Quick
            test_async_epoch_change_under_drops;
        ] );
      ( "batch-pool",
        [
          Alcotest.test_case "emit, iterate, clear" `Quick
            test_batch_emit_iter_clear;
          Alcotest.test_case "rentals never aliased" `Quick
            test_pool_never_aliases;
          Alcotest.test_case "with_batch reentrant" `Quick
            test_pool_with_batch_reentrant;
        ] );
      ( "attempts",
        [
          Alcotest.test_case "reply for a finished id ignored" `Quick
            test_attempts_stale_reply;
          Alcotest.test_case "wrong-group reply refused" `Quick
            test_attempts_misrouted;
          Alcotest.test_case "doubled Retransmit clamped at the cap" `Quick
            test_attempts_retransmit_clamped;
          Alcotest.test_case "due check fires exactly the due timers" `Quick
            test_attempts_due_check;
          Alcotest.test_case "stamps strictly increase on a stalled clock"
            `Quick test_attempts_mint_monotone;
          Alcotest.test_case "retransmit names only the silent replicas"
            `Quick test_attempts_retransmit_names_missing;
          Alcotest.test_case "resume feeds each in-flight attempt once" `Quick
            test_attempts_resume;
        ] );
      ( "five-replicas",
        [
          Alcotest.test_case "fast path with 5 replicas" `Quick test_n5_fast_path;
          Alcotest.test_case "survives two crashes" `Quick test_n5_survives_two_crashes;
          Alcotest.test_case "one crash keeps fast path" `Quick
            test_n5_one_crash_keeps_fast_path;
          Alcotest.test_case "epoch change at 3/5" `Quick test_n5_epoch_change;
        ] );
    ]
