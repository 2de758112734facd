(* The live runtime, tested from all layers: mailbox semantics under
   real producer/consumer domains, the shared spawn helper, bit-exact
   sim equivalence of the extracted coordinator state machine, and a
   full protocol run on real domains with the serializability checker
   over the committed history. *)

module Mailbox = Mk_live.Mailbox
module Spawn = Mk_live.Spawn
module Runtime = Mk_live.Runtime
module Link = Mk_live.Link
module Checker = Mk_harness.Checker
module Chaos = Mk_harness.Chaos
module Nemesis = Mk_fault.Nemesis
module Network = Mk_net.Network
module Engine = Mk_sim.Engine
module Transport = Mk_net.Transport
module Intf = Mk_model.System_intf
module Sim = Mk_meerkat.Sim_system
module Workload = Mk_workload.Workload

(* --- mailbox --- *)

let test_mailbox_backpressure () =
  let mb = Mailbox.create ~capacity:4 in
  for i = 1 to 4 do
    Alcotest.(check bool) "push while space" true (Mailbox.try_push mb i)
  done;
  Alcotest.(check bool) "full mailbox refuses" false (Mailbox.try_push mb 5);
  Alcotest.(check int) "length at capacity" 4 (Mailbox.length mb);
  Alcotest.(check (option int)) "pop oldest" (Some 1) (Mailbox.try_pop mb);
  Alcotest.(check bool) "pop frees a slot" true (Mailbox.try_push mb 5);
  Alcotest.(check bool) "and only one" false (Mailbox.try_push mb 6)

let test_mailbox_fifo () =
  let mb = Mailbox.create ~capacity:128 in
  for i = 1 to 100 do
    Mailbox.push mb i
  done;
  for i = 1 to 100 do
    Alcotest.(check (option int)) "FIFO" (Some i) (Mailbox.try_pop mb)
  done;
  Alcotest.(check (option int)) "drained" None (Mailbox.try_pop mb)

(* The batched drain: partial drains with interleaved pushes must
   preserve global FIFO, report exact counts, and — because each slot
   is released before its callback runs — tolerate a handler that
   pushes back into the same mailbox mid-drain. *)
let test_mailbox_drain_partial () =
  let mb = Mailbox.create ~capacity:16 in
  for i = 1 to 10 do
    Mailbox.push mb i
  done;
  let got = ref [] in
  let f x = got := x :: !got in
  Alcotest.(check int) "partial drain spends its budget" 4
    (Mailbox.drain mb ~max:4 f);
  Alcotest.(check (list int)) "first burst in order" [ 1; 2; 3; 4 ]
    (List.rev !got);
  (* Push more mid-stream: older messages still come out first. *)
  for i = 11 to 13 do
    Mailbox.push mb i
  done;
  Alcotest.(check int) "second partial drain" 4 (Mailbox.drain mb ~max:4 f);
  Alcotest.(check int) "oversized budget takes the remainder" 5
    (Mailbox.drain mb ~max:100 f);
  Alcotest.(check (list int)) "global FIFO across partial drains"
    (List.init 13 (fun i -> i + 1))
    (List.rev !got);
  Alcotest.(check int) "empty drain consumes nothing" 0
    (Mailbox.drain mb ~max:8 f);
  (* Reentrant push: the handler's own push lands behind the head and
     is picked up by the same drain while budget remains. *)
  Mailbox.push mb 99;
  let seen = ref [] in
  let n =
    Mailbox.drain mb ~max:8 (fun x ->
        seen := x :: !seen;
        if x = 99 then Mailbox.push mb 100)
  in
  Alcotest.(check int) "reentrant push drained in the same burst" 2 n;
  Alcotest.(check (list int)) "in FIFO order" [ 99; 100 ] (List.rev !seen);
  Alcotest.(check int) "nothing left behind" 0 (Mailbox.length mb)

(* Four producer domains hammer one small (capacity 16, so constantly
   full) mailbox; the consumer checks per-producer FIFO and that every
   message arrives exactly once. A lost message would hang the test,
   which is the loudest possible failure. *)
let test_mailbox_mpsc () =
  let producers = 4 and per = 500 in
  let mb = Mailbox.create ~capacity:16 in
  let results =
    Spawn.parallel ~domains:(producers + 1) (fun id ->
        if id = 0 then begin
          let seen = Array.make producers 0 in
          let bad = ref 0 in
          for _ = 1 to producers * per do
            let p, n = Mailbox.pop mb in
            if n <> seen.(p - 1) + 1 then incr bad;
            seen.(p - 1) <- n
          done;
          Some (Array.to_list seen, !bad)
        end
        else begin
          for n = 1 to per do
            Mailbox.push mb (id, n)
          done;
          None
        end)
  in
  match List.hd results with
  | Some (seen, bad) ->
      Alcotest.(check (list int))
        "every producer's last message" [ per; per; per; per ] seen;
      Alcotest.(check int) "no gap, duplicate, or reorder per sender" 0 bad
  | None -> Alcotest.fail "consumer produced no result"

let test_mailbox_park_wake () =
  let mb = Mailbox.create ~capacity:4 in
  (* Consumer exhausts its spin budget immediately and parks; the push
     from this domain must wake it. *)
  let consumer = Spawn.spawn (fun () -> Mailbox.pop ~spins:1 mb) in
  Unix.sleepf 0.05;
  Mailbox.push mb 42;
  Alcotest.(check int) "woken with the message" 42 (Spawn.join consumer)

let test_mailbox_capacity_validated () =
  (match Mailbox.create ~capacity:3 with
  | _ -> Alcotest.fail "non-power-of-two accepted"
  | exception Invalid_argument _ -> ());
  match Mailbox.create ~capacity:1 with
  | _ -> Alcotest.fail "capacity 1 accepted"
  | exception Invalid_argument _ -> ()

(* --- spawn --- *)

let test_spawn_parallel () =
  Alcotest.(check (list int))
    "results in index order" [ 0; 1; 2; 3 ]
    (Spawn.parallel ~domains:4 (fun id -> id));
  let results, wall = Spawn.timed ~domains:2 (fun id -> id * 10) in
  Alcotest.(check (list int)) "timed results" [ 0; 10 ] results;
  Alcotest.(check bool) "elapsed is non-negative" true (wall >= 0.0)

(* --- faulty links --- *)

let window ~from_t ~until_t rule =
  { Nemesis.w_name = "test"; from_t; until_t; scope = Nemesis.All_links; rule }

let link_ctx ?(plan = { Nemesis.windows = []; crashes = [] }) now =
  Link.create ~plan ~seed:7 ~now:(fun () -> !now)

let test_link_passthrough () =
  let hits = ref 0 in
  Link.via None
    ~src:(Network.Client 0) ~dst:(Network.Replica 0)
    ~push:(fun () -> incr hits);
  Alcotest.(check int) "via None is the bare push" 1 !hits;
  (* A windowless plan delivers everything and draws no randomness. *)
  let now = ref 0.0 in
  let ctx = link_ctx now in
  for _ = 1 to 50 do
    Link.send ctx ~src:(Network.Client 0) ~dst:(Network.Replica 1)
      ~push:(fun () -> incr hits)
  done;
  Alcotest.(check int) "all delivered" 51 !hits;
  Alcotest.(check (triple int int int)) "no faults counted" (0, 0, 0)
    (Link.stats ctx)

let test_link_down_discard () =
  let now = ref 0.0 in
  let ctx = link_ctx now in
  let hits = ref 0 in
  let push () = incr hits in
  Link.set_down ctx (Network.Replica 1) ~until:100.0;
  Link.send ctx ~src:(Network.Client 0) ~dst:(Network.Replica 1) ~push;
  Link.send ctx ~src:(Network.Replica 1) ~dst:(Network.Replica 0) ~push;
  Alcotest.(check int) "to and from a down endpoint discarded" 0 !hits;
  Link.send ctx ~src:(Network.Replica 0) ~dst:(Network.Replica 2) ~push;
  Alcotest.(check int) "other links unaffected" 1 !hits;
  (* Reboot deadline passed: traffic flows again without set_up. *)
  now := 150.0;
  Link.send ctx ~src:(Network.Client 0) ~dst:(Network.Replica 1) ~push;
  Alcotest.(check int) "delivered after the reboot deadline" 2 !hits;
  Alcotest.(check (triple int int int)) "discards counted as drops" (2, 0, 0)
    (Link.stats ctx)

let test_link_set_up () =
  let now = ref 0.0 in
  let ctx = link_ctx now in
  let hits = ref 0 in
  let push () = incr hits in
  Link.set_down ctx (Network.Replica 2) ~until:infinity;
  Link.send ctx ~src:(Network.Client 0) ~dst:(Network.Replica 2) ~push;
  Alcotest.(check bool) "down" true (Link.is_down ctx (Network.Replica 2));
  Link.set_up ctx (Network.Replica 2);
  Link.send ctx ~src:(Network.Client 0) ~dst:(Network.Replica 2) ~push;
  Alcotest.(check int) "explicit reboot clears the gate" 1 !hits

let test_link_drop_and_dup () =
  let now = ref 10.0 in
  let drop_all =
    { Network.pass with Network.drop = 1.0 }
  in
  let ctx =
    link_ctx ~plan:{ Nemesis.windows = [ window ~from_t:0.0 ~until_t:100.0 drop_all ];
                     crashes = [] }
      now
  in
  let hits = ref 0 in
  let push () = incr hits in
  Link.send ctx ~src:(Network.Client 0) ~dst:(Network.Replica 0) ~push;
  Alcotest.(check int) "dropped" 0 !hits;
  now := 200.0 (* window closed *);
  Link.send ctx ~src:(Network.Client 0) ~dst:(Network.Replica 0) ~push;
  Alcotest.(check int) "delivered outside the window" 1 !hits;
  let dup_all = { Network.pass with Network.dup = 1.0 } in
  let now = ref 10.0 in
  let ctx =
    link_ctx ~plan:{ Nemesis.windows = [ window ~from_t:0.0 ~until_t:100.0 dup_all ];
                     crashes = [] }
      now
  in
  let hits = ref 0 in
  Link.send ctx ~src:(Network.Client 0) ~dst:(Network.Replica 0)
    ~push:(fun () -> incr hits);
  Alcotest.(check int) "delivered twice back to back" 2 !hits;
  Alcotest.(check (triple int int int)) "one duplicate counted" (0, 1, 0)
    (Link.stats ctx)

let test_link_delay_wheel () =
  let now = ref 10.0 in
  let spike =
    { Network.pass with Network.delay_prob = 1.0; delay = 50.0 }
  in
  (* Window closes at t=15: the first send is spiked, the second (at
     t=20) sails through and overtakes it — the reorder the sim's
     delay spikes model. *)
  let ctx =
    link_ctx ~plan:{ Nemesis.windows = [ window ~from_t:0.0 ~until_t:15.0 spike ];
                     crashes = [] }
      now
  in
  let got = ref [] in
  let push x () = got := x :: !got in
  Link.send ctx ~src:(Network.Client 0) ~dst:(Network.Replica 0) ~push:(push `Spiked);
  Alcotest.(check int) "parked on the wheel" 1 (Link.pending ctx);
  now := 20.0;
  Link.send ctx ~src:(Network.Client 0) ~dst:(Network.Replica 0) ~push:(push `Prompt);
  Link.flush ctx;
  Alcotest.(check int) "not due yet" 1 (Link.pending ctx);
  now := 70.0;
  Link.flush ctx;
  Alcotest.(check int) "wheel drained" 0 (Link.pending ctx);
  Alcotest.(check bool) "overtaken by the later message" true
    (List.rev !got = [ `Prompt; `Spiked ]);
  Alcotest.(check (triple int int int)) "one delay counted" (0, 0, 1)
    (Link.stats ctx)

(* --- sim/live equivalence of the extracted protocol --- *)

(* Golden decision counts captured from the simulator BEFORE the
   coordinator state machine was extracted into Protocol (the
   pre-refactor Sim_system drove sends and timers inline). The
   refactored simulator routes every decision through the same
   Protocol code the live runtime executes; these runs — spanning the
   fast path, drop-induced retransmissions + slow paths, and a replica
   crash — must stay bit-identical: (acks, naks, fast, slow,
   retransmits) per (seed, drops?, crash?). *)
let golden =
  [
    (1, false, false, (556, 84, 615, 25, 0));
    (1, true, false, (477, 163, 406, 234, 101));
    (1, false, true, (557, 83, 493, 147, 2));
    (2, false, false, (561, 79, 627, 13, 0));
    (2, true, false, (463, 177, 405, 235, 88));
    (2, false, true, (561, 79, 499, 141, 4));
    (3, false, false, (557, 83, 622, 18, 0));
    (3, true, false, (466, 174, 366, 274, 84));
    (3, false, true, (564, 76, 491, 149, 3));
    (4, false, false, (551, 89, 628, 12, 0));
    (4, true, false, (493, 147, 389, 251, 77));
    (4, false, true, (554, 86, 496, 144, 2));
    (5, false, false, (536, 104, 621, 19, 0));
    (5, true, false, (443, 197, 394, 246, 94));
    (5, false, true, (543, 97, 488, 152, 2));
    (6, false, false, (558, 82, 620, 20, 0));
    (6, true, false, (447, 193, 374, 266, 96));
    (6, false, true, (561, 79, 485, 155, 3));
    (7, false, false, (549, 91, 622, 18, 0));
    (7, true, false, (465, 175, 393, 247, 88));
    (7, false, true, (552, 88, 495, 145, 4));
    (8, false, false, (555, 85, 617, 23, 0));
    (8, true, false, (471, 169, 383, 257, 83));
    (8, false, true, (561, 79, 504, 136, 3));
  ]

let scenario ~seed ~drop ~crash =
  let cfg =
    {
      Sim.default_config with
      threads = 4;
      n_clients = 16;
      keys = 192;
      seed;
      transport =
        (if drop then Transport.with_drop Transport.erpc 0.05
         else Transport.erpc);
    }
  in
  let engine = Engine.create ~seed () in
  let sys = Sim.create engine cfg in
  let wl =
    Workload.ycsb_t
      ~rng:(Mk_util.Rng.create ~seed:(seed + 17))
      ~keys:cfg.Sim.keys ~theta:0.6
  in
  let acks = ref 0 and naks = ref 0 in
  let rec loop c remaining =
    if remaining > 0 then
      Sim.submit sys ~client:c (Workload.next wl) ~on_done:(fun ~committed ->
          if committed then incr acks else incr naks;
          loop c (remaining - 1))
  in
  for c = 0 to cfg.Sim.n_clients - 1 do
    loop c 40
  done;
  if crash then Engine.schedule_at engine 1500.0 (fun () -> Sim.crash_replica sys 2);
  Engine.run ~max_events:50_000_000 engine;
  let counters = Sim.counters sys in
  ( !acks,
    !naks,
    counters.Intf.fast_path,
    counters.Intf.slow_path,
    counters.Intf.retransmits )

let test_sim_equivalence () =
  List.iter
    (fun (seed, drop, crash, (acks, naks, fast, slow, retr)) ->
      let a, n, f, s, r = scenario ~seed ~drop ~crash in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d drop=%b crash=%b" seed drop crash)
        [ acks; naks; fast; slow; retr ]
        [ a; n; f; s; r ])
    golden

(* --- the live runtime itself --- *)

let live_cfg seed =
  {
    Runtime.default_config with
    server_domains = 2;
    coordinators = 2;
    clients = 8;
    keys = 256;
    theta = 0.6;
    txns_per_client = 25;
    seed;
  }

let check_serializable what (r : Runtime.report) =
  Alcotest.(check int)
    (what ^ ": history matches counter")
    r.Runtime.committed_count
    (List.length r.Runtime.committed);
  match Checker.check r.Runtime.committed with
  | Ok () -> ()
  | Error v -> Alcotest.failf "%s: %a" what Checker.pp_violation v

let test_live_smoke () =
  let r = Runtime.run (live_cfg 1) in
  Alcotest.(check int)
    "every transaction decided" (8 * 25)
    (r.Runtime.committed_count + r.Runtime.aborted);
  Alcotest.(check bool) "some commits" true (r.Runtime.committed_count > 0);
  Alcotest.(check bool) "fast path used" true (r.Runtime.fast_path > 0);
  check_serializable "smoke" r

let test_live_serializable_across_seeds () =
  List.iter
    (fun seed -> check_serializable (Printf.sprintf "seed %d" seed)
        (Runtime.run (live_cfg seed)))
    [ 2; 3; 4 ]

let test_live_single_domain () =
  let r =
    Runtime.run
      {
        (live_cfg 5) with
        Runtime.server_domains = 1;
        coordinators = 1;
        clients = 4;
      }
  in
  Alcotest.(check int)
    "every transaction decided" (4 * 25)
    (r.Runtime.committed_count + r.Runtime.aborted);
  check_serializable "single domain" r

(* --- more than one shard group (DESIGN.md §13) --- *)

let test_multi_cross_shard () =
  (* 2 shards x 3 replicas with half of the multi-key transactions
     spanning both groups: every submitted transaction must be
     answered exactly once, cross-shard commits must actually happen,
     and the merged history and each shard's own sub-history must be
     serializable. *)
  let clients = 4 and txns = 20 in
  let r =
    Runtime.run
      {
        Runtime.default_config with
        shards = 2;
        server_domains = 1;
        n_replicas = 3;
        coordinators = 1;
        clients;
        keys = 64;
        workload = Runtime.Rmw_pair;
        cross = 0.5;
        txns_per_client = txns;
        seed = 3;
      }
  in
  let expected = clients * txns in
  Alcotest.(check int) "decided" expected (r.Runtime.committed_count + r.Runtime.aborted);
  Alcotest.(check int) "submitted" expected r.Runtime.submitted;
  Alcotest.(check int) "acked" expected r.Runtime.acked;
  Alcotest.(check bool) "some cross-shard transactions" true
    (r.Runtime.cross_shard > 0);
  (match Checker.check r.Runtime.committed with
  | Ok () -> ()
  | Error v -> Alcotest.failf "merged history: %a" Checker.pp_violation v);
  List.iter
    (fun (shard, sub) ->
      match Checker.check sub with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "shard %d sub-history: %a" shard Checker.pp_violation v)
    r.Runtime.sub_histories

(* Chaos and durability are single-group: asking for either with two
   groups is refused before any domain is spawned. *)
let test_multi_refuses_faults () =
  let horizon_us = 100_000.0 in
  let chaos =
    {
      Runtime.plan = { Nemesis.windows = []; crashes = [] };
      detector = Runtime.chaos_detector_cfg ~horizon_us;
      horizon_us;
      settle_us = 50_000.0;
    }
  in
  let sharded =
    { (live_cfg 1) with Runtime.shards = 2; duration = Some (horizon_us /. 1e6) }
  in
  List.iter
    (fun (what, cfg) ->
      match Runtime.run cfg with
      | _ -> Alcotest.failf "%s with shards = 2 accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("chaos", { sharded with Runtime.chaos = Some chaos });
      ( "durable",
        {
          sharded with
          Runtime.durable =
            Some { Runtime.dir = "unused"; policy = Mk_durable.Wal.Every 8 };
        } );
    ]

(* --- chaos on live domains --- *)

let test_coord_inbox_floor () =
  (* 1 coordinator x 8 clients x 3 replicas -> floor 96 > 16. *)
  (match
     Runtime.run
       {
         (live_cfg 1) with
         Runtime.coordinators = 1;
         clients = 8;
         coord_inbox = 16;
       }
   with
  | _ -> Alcotest.fail "undersized coord_inbox accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "names the deadlock-freedom floor" true
        (let re = "deadlock-freedom floor" in
         let n = String.length re in
         let rec find i =
           i + n <= String.length msg && (String.sub msg i n = re || find (i + 1))
         in
         find 0));
  (* The defaults clear the floor: 2 coordinators x 8 clients -> 48. *)
  match Runtime.run { (live_cfg 1) with Runtime.txns_per_client = 1 } with
  | _ -> ()
  | exception Invalid_argument msg -> Alcotest.failf "defaults rejected: %s" msg

let test_chaos_needs_duration () =
  let horizon_us = 100_000.0 in
  let chaos =
    {
      Runtime.plan = { Nemesis.windows = []; crashes = [] };
      detector = Runtime.chaos_detector_cfg ~horizon_us;
      horizon_us;
      settle_us = 50_000.0;
    }
  in
  match Runtime.run { (live_cfg 1) with Runtime.chaos = Some chaos } with
  | _ -> Alcotest.fail "chaos without a duration accepted"
  | exception Invalid_argument _ -> ()

(* One coordinator kill, no link faults: while down its inbox is
   popped and discarded (fail-stop discard), on reboot the backlog is
   purged and every in-flight attempt resumed. Every submission still
   reaches an ack with a serializable history — replies from before
   the kill that survive in the mailbox carry stale seqs and must all
   be rejected by the protocol's seq guard, or the counters and the
   checker would disagree. *)
let test_live_coordinator_kill () =
  let horizon_us = 400_000.0 in
  let chaos =
    {
      Runtime.plan =
        {
          Nemesis.windows = [];
          crashes =
            [
              Nemesis.Coordinator_crash
                { at = 0.25 *. horizon_us; client = 0; down_for = 0.1 *. horizon_us };
            ];
        };
      detector = Runtime.chaos_detector_cfg ~horizon_us;
      horizon_us;
      settle_us = horizon_us /. 2.0;
    }
  in
  let r =
    Runtime.run
      {
        (live_cfg 6) with
        Runtime.clients = 4;
        txns_per_client = 0;
        duration = Some (horizon_us /. 1e6);
        rto_us = horizon_us /. 50.0;
        chaos = Some chaos;
      }
  in
  Alcotest.(check bool) "the kill was injected" true (r.Runtime.fault_events >= 1);
  Alcotest.(check int)
    "reboot drain: every submission still acked"
    r.Runtime.submitted r.Runtime.acked;
  Alcotest.(check int)
    "no stale-seq acks: counter matches the history"
    r.Runtime.committed_count
    (List.length r.Runtime.committed);
  check_serializable "coordinator kill" r

(* A replica fail-stop through the full live chaos harness: the
   heartbeat detector must notice over real mailboxes, run a real
   §5.3.1 epoch change, and all five end-of-run invariants must hold
   (in particular available — the victim was reintegrated — and
   bounded — write-backs it missed while down were recovered). *)
let test_live_replica_crash_harness () =
  let report =
    Chaos.run
      {
        Chaos.default_live_cfg with
        Chaos.seed = 3;
        profile = Nemesis.Crash_replica;
        n_clients = 4;
      }
  in
  Alcotest.(check bool)
    (Format.asprintf "six invariants hold: %a" Chaos.pp_report report)
    true (Chaos.passed report);
  Alcotest.(check bool)
    "a detector-driven epoch change ran on real domains" true
    (report.Chaos.epoch_changes >= 1);
  Alcotest.(check bool)
    "the crash discarded traffic at the link" true
    (report.Chaos.dropped > 0)

(* Crash-reboot on real domains and real files: the same victim
   fail-stops twice, each reboot is merged back by the heartbeat
   detector, and the durable invariant replays the per-(replica, core)
   WAL + snapshot files off disk through the exact Recover reboot
   path. Four seeds — the acceptance matrix. *)
let test_live_crash_reboot_harness () =
  List.iter
    (fun seed ->
      let report =
        Chaos.run
          {
            Chaos.default_live_cfg with
            Chaos.seed;
            profile = Nemesis.Crash_reboot;
            n_clients = 4;
          }
      in
      Alcotest.(check bool)
        (Format.asprintf "seed %d: six invariants hold: %a" seed
           Chaos.pp_report report)
        true (Chaos.passed report);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: both reboots merged back" seed)
        true
        (report.Chaos.epoch_changes >= 2))
    [ 1; 2; 3; 4 ]

let () =
  Mk_check.Owner.enable ();
  Alcotest.run "live"
    [
      ( "mailbox",
        [
          Alcotest.test_case "bounded backpressure" `Quick
            test_mailbox_backpressure;
          Alcotest.test_case "FIFO" `Quick test_mailbox_fifo;
          Alcotest.test_case "partial drains" `Quick test_mailbox_drain_partial;
          Alcotest.test_case "4 producers x 1 consumer, no loss/dup" `Quick
            test_mailbox_mpsc;
          Alcotest.test_case "park and wake on empty" `Quick
            test_mailbox_park_wake;
          Alcotest.test_case "capacity validated" `Quick
            test_mailbox_capacity_validated;
        ] );
      ( "spawn",
        [ Alcotest.test_case "parallel + timed" `Quick test_spawn_parallel ] );
      ( "link",
        [
          Alcotest.test_case "fault-free passthrough" `Quick
            test_link_passthrough;
          Alcotest.test_case "down endpoint discards" `Quick
            test_link_down_discard;
          Alcotest.test_case "explicit reboot" `Quick test_link_set_up;
          Alcotest.test_case "drop and duplicate verdicts" `Quick
            test_link_drop_and_dup;
          Alcotest.test_case "delay wheel reorders" `Quick
            test_link_delay_wheel;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "extracted protocol = pre-refactor sim, 24 runs"
            `Quick test_sim_equivalence;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "full protocol on real domains" `Quick
            test_live_smoke;
          Alcotest.test_case "serializable across seeds" `Quick
            test_live_serializable_across_seeds;
          Alcotest.test_case "single server domain" `Quick
            test_live_single_domain;
        ] );
      ( "multi",
        [
          Alcotest.test_case "2 shards, cross-shard 2PC serializable" `Quick
            test_multi_cross_shard;
          Alcotest.test_case "chaos or durable with 2 shards refused" `Quick
            test_multi_refuses_faults;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "coord_inbox floor enforced" `Quick
            test_coord_inbox_floor;
          Alcotest.test_case "chaos requires a duration" `Quick
            test_chaos_needs_duration;
          Alcotest.test_case "coordinator kill: drain, resume, no stale acks"
            `Quick test_live_coordinator_kill;
          Alcotest.test_case "replica crash through the live harness" `Quick
            test_live_replica_crash_harness;
          Alcotest.test_case "crash-reboot through the live harness, 4 seeds"
            `Quick test_live_crash_reboot_harness;
        ] );
    ]
