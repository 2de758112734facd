(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6), plus ablations and the shard sweep.

     dune exec bench/main.exe                 # everything, quick mode
     dune exec bench/main.exe -- --full       # longer windows, finer sweeps
     dune exec bench/main.exe -- fig4 fig6a   # selected experiments

   Absolute numbers come from the calibrated cost model (see
   lib/model/costs.ml and DESIGN.md); the comparative shapes are the
   reproduction targets and are recorded in EXPERIMENTS.md. *)

module Engine = Mk_sim.Engine
module Transport = Mk_net.Transport
module Intf = Mk_model.System_intf
module Cluster = Mk_cluster.Cluster
module Systems = Mk_systems.Systems
module Workload = Mk_workload.Workload
module Runner = Mk_harness.Runner
module KV = Mk_kvbench.Kv_system
module Table = Mk_util.Table

type mode = {
  full : bool;
  seed : int;
  trace : string option;  (** [--trace FILE]: Chrome-trace output path. *)
  metrics : bool;  (** [--metrics]: print the metrics registry dump. *)
}

let say fmt = Format.printf (fmt ^^ "@.")

let heading title =
  Format.printf "@.=== %s ===@." title

let mfmt v = Printf.sprintf "%.3f" (v /. 1e6)
let pct v = Printf.sprintf "%.1f" (100.0 *. v)

(* ------------------------------------------------------------------ *)
(* Figure 1: PUT microbenchmark, UDP vs eRPC, with/without a shared
   atomic counter.                                                     *)
(* ------------------------------------------------------------------ *)

let fig1_point mode ~threads ~transport ~atomic_counter =
  let make ~n_clients:_ =
    let engine = Engine.create ~seed:mode.seed () in
    let cfg = { KV.default_config with threads; transport; atomic_counter } in
    let sys = KV.create engine cfg in
    let packed =
      Intf.Packed
        ( (module struct
            type t = KV.t

            let name = KV.name
            let threads = KV.threads
            let submit = KV.submit
            let obs = KV.obs
          end),
          sys )
    in
    (engine, packed, fun () -> KV.server_busy_fraction sys)
  in
  let workload () =
    Workload.write_only
      ~rng:(Mk_util.Rng.create ~seed:(mode.seed + 1))
      ~keys:65536 ~theta:0.0 ~nwrites:1
  in
  let measure = if mode.full then 2500.0 else 800.0 in
  let _, r =
    Runner.peak ~make ~workload
      ~ladder:[ 8 * threads; 24 * threads; 48 * threads ]
      ~warmup:(measure /. 4.0) ~measure
  in
  r.Runner.goodput

let fig1 mode =
  heading "Figure 1: PUT throughput, kernel-bypass vs kernel UDP stack";
  say "Paper: eRPC ~8x UDP; a shared atomic counter caps eRPC near 11 M";
  say "ops/s (invisible on UDP up to 20 threads).";
  let threads_axis =
    if mode.full then [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ] else [ 2; 8; 14; 20 ]
  in
  let table =
    Table.create ~header:[ "threads"; "eRPC"; "eRPC+counter"; "UDP"; "UDP+counter" ]
  in
  List.iter
    (fun threads ->
      let point transport atomic_counter =
        fig1_point mode ~threads ~transport ~atomic_counter
      in
      let erpc = point Transport.erpc false in
      let erpc_ctr = point Transport.erpc true in
      let udp = point Transport.udp false in
      let udp_ctr = point Transport.udp true in
      Table.add_row table
        [ string_of_int threads; mfmt erpc; mfmt erpc_ctr; mfmt udp; mfmt udp_ctr ])
    threads_axis;
  say "Peak throughput (million PUTs/sec):";
  Table.print table

(* ------------------------------------------------------------------ *)
(* Table 1: the coordination matrix, verified by construction flags.   *)
(* ------------------------------------------------------------------ *)

let table1 _mode =
  heading "Table 1: evaluation prototypes and their coordination";
  let table =
    Table.create ~header:[ "system"; "cross-core coord."; "cross-replica coord." ]
  in
  List.iter
    (fun kind ->
      let core, replica = Systems.coordination kind in
      let yn b = if b then "yes" else "no" in
      Table.add_row table [ Systems.name kind; yn core; yn replica ])
    [ Systems.Kuafupp; Systems.Tapir; Systems.Meerkat_pb; Systems.Meerkat ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* Table 2: the Retwis mix, generated vs specified.                    *)
(* ------------------------------------------------------------------ *)

let table2 mode =
  heading "Table 2: Retwis transaction mix (spec vs generated)";
  let wl = Workload.retwis ~rng:(Mk_util.Rng.create ~seed:mode.seed) ~keys:65536 ~theta:0.0 in
  let n = if mode.full then 200_000 else 50_000 in
  let gets = ref 0 and puts = ref 0 in
  for _ = 1 to n do
    let req = Workload.next wl in
    gets := !gets + Array.length req.Intf.reads;
    puts := !puts + Array.length req.Intf.writes
  done;
  let spec =
    [
      ("Add User", "1 get, 3 puts", 5.0);
      ("Follow/Unfollow", "2 gets, 2 puts", 15.0);
      ("Post Tweet", "3 gets, 5 puts", 30.0);
      ("Load Timeline", "rand(1,10) gets", 50.0);
    ]
  in
  let mix = Workload.mix_report wl in
  let table =
    Table.create ~header:[ "transaction type"; "ops"; "spec %"; "generated %" ]
  in
  List.iter
    (fun (label, ops, expected) ->
      let got =
        match List.assoc_opt label mix with
        | Some c -> 100.0 *. float_of_int c /. float_of_int n
        | None -> 0.0
      in
      Table.add_row table
        [ label; ops; Printf.sprintf "%.0f" expected; Printf.sprintf "%.2f" got ])
    spec;
  Table.print table;
  say "mean gets/txn = %.2f (expected 4.00), mean puts/txn = %.2f (expected 1.95)"
    (float_of_int !gets /. float_of_int n)
    (float_of_int !puts /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Figures 4 & 5: peak throughput vs server threads, four systems.     *)
(* ------------------------------------------------------------------ *)

let threads_axis mode =
  if mode.full then [ 8; 16; 24; 32; 40; 48; 56; 64; 72; 80 ]
  else [ 8; 16; 32; 64; 80 ]

let scaling_figure mode ~title ~paper_note ~workload =
  heading title;
  say "%s" paper_note;
  let keys_per_thread = if mode.full then 8192 else 4096 in
  let measure = if mode.full then 3000.0 else 1200.0 in
  let table =
    Table.create
      ~header:[ "threads"; "MEERKAT"; "MEERKAT-PB"; "TAPIR"; "KuaFu++" ]
  in
  List.iter
    (fun threads ->
      let row =
        List.map
          (fun kind ->
            let config =
              {
                Cluster.default_config with
                threads;
                keys = keys_per_thread * threads;
                seed = mode.seed;
              }
            in
            let _, r =
              Systems.sweep kind ~config ~workload ~warmup:(measure /. 2.0) ~measure
            in
            mfmt r.Runner.goodput)
          Systems.all
      in
      Table.add_row table (string_of_int threads :: row))
    (threads_axis mode);
  say "Peak goodput (million committed txns/sec), uniform key access:";
  Table.print table

let fig4 mode =
  scaling_figure mode ~title:"Figure 4: YCSB-T throughput vs server threads"
    ~paper_note:
      "Paper: KuaFu++ caps ~0.6M at ~6 threads; TAPIR ~0.8M at ~8; Meerkat-PB\n\
       ~7x KuaFu++; Meerkat scales linearly to 80 threads and ~8.3M txn/s (12x)."
    ~workload:(fun ~rng ~keys -> Workload.ycsb_t ~rng ~keys ~theta:0.0)

let fig5 mode =
  scaling_figure mode ~title:"Figure 5: Retwis throughput vs server threads"
    ~paper_note:
      "Paper: longer read-heavy txns lower all systems; TAPIR/KuaFu++ scale\n\
       further (~32 threads) but still cap at 0.6-0.7M; Meerkat reaches ~2.7M."
    ~workload:(fun ~rng ~keys -> Workload.retwis ~rng ~keys ~theta:0.0)

(* ------------------------------------------------------------------ *)
(* Figures 6 & 7: contention sweep at 64 threads, Meerkat vs PB.       *)
(* ------------------------------------------------------------------ *)

type zipf_point = {
  theta : float;
  meerkat : Runner.result;
  meerkat_pb : Runner.result;
}

let zipf_sweep mode ~workload =
  let threads = 64 in
  let keys_per_thread = if mode.full then 8192 else 4096 in
  let measure = if mode.full then 2500.0 else 1000.0 in
  let thetas =
    if mode.full then [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.85; 0.9; 0.95; 0.99 ]
    else [ 0.0; 0.5; 0.7; 0.8; 0.9; 0.95; 0.99 ]
  in
  List.map
    (fun theta ->
      let run kind =
        let config =
          {
            Cluster.default_config with
            threads;
            keys = keys_per_thread * threads;
            seed = mode.seed;
          }
        in
        let _, r =
          Systems.sweep kind ~config
            ~workload:(fun ~rng ~keys -> workload ~rng ~keys ~theta)
            ~warmup:(measure /. 2.0) ~measure
        in
        r
      in
      { theta; meerkat = run Systems.Meerkat; meerkat_pb = run Systems.Meerkat_pb })
    thetas

let print_zipf_throughput points =
  let table = Table.create ~header:[ "zipf"; "MEERKAT"; "MEERKAT-PB" ] in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Printf.sprintf "%.2f" p.theta;
          mfmt p.meerkat.Runner.goodput;
          mfmt p.meerkat_pb.Runner.goodput;
        ])
    points;
  say "Peak goodput (million txns/sec) at 64 server threads:";
  Table.print table

let print_zipf_aborts points =
  let table = Table.create ~header:[ "zipf"; "MEERKAT"; "MEERKAT-PB" ] in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Printf.sprintf "%.2f" p.theta;
          pct p.meerkat.Runner.abort_rate;
          pct p.meerkat_pb.Runner.abort_rate;
        ])
    points;
  say "Abort rate (%%) at peak throughput, 64 server threads:";
  Table.print table

(* The 6a/7a (YCSB-T) and 6b/7b (Retwis) sweeps are shared between the
   throughput and abort-rate figures; cache them per invocation. *)
let ycsb_sweep_cache = ref None
let retwis_sweep_cache = ref None

let get_sweep mode cache ~workload =
  match !cache with
  | Some points -> points
  | None ->
      let points = zipf_sweep mode ~workload in
      cache := Some points;
      points

let ycsb_sweep mode =
  get_sweep mode ycsb_sweep_cache ~workload:(fun ~rng ~keys ~theta ->
      Workload.ycsb_t ~rng ~keys ~theta)

let retwis_sweep mode =
  get_sweep mode retwis_sweep_cache ~workload:(fun ~rng ~keys ~theta ->
      Workload.retwis ~rng ~keys ~theta)

let fig6a mode =
  heading "Figure 6a: YCSB-T throughput vs Zipf coefficient (64 threads)";
  say "Paper: Meerkat ~50%% ahead until ~0.87, then drops below Meerkat-PB.";
  print_zipf_throughput (ycsb_sweep mode)

let fig6b mode =
  heading "Figure 6b: Retwis throughput vs Zipf coefficient (64 threads)";
  say "Paper: Meerkat-PB roughly matches Meerkat and wins at high skew.";
  print_zipf_throughput (retwis_sweep mode)

let fig7a mode =
  heading "Figure 7a: YCSB-T abort rate vs Zipf coefficient (64 threads)";
  say "Paper: both climb past ~0.8; Meerkat slightly higher throughout.";
  print_zipf_aborts (ycsb_sweep mode)

let fig7b mode =
  heading "Figure 7b: Retwis abort rate vs Zipf coefficient (64 threads)";
  say "Paper: Retwis aborts climb faster than YCSB-T's.";
  print_zipf_aborts (retwis_sweep mode)

(* ------------------------------------------------------------------ *)
(* Extension: commit latency comparison (the paper's §6.2 claim that
   Meerkat saves a message round compared to primary-backup).          *)
(* ------------------------------------------------------------------ *)

let latency mode =
  heading "Extension: commit latency at moderate load (16 threads)";
  say "Meerkat decides after one round to the replicas; the primary-backup";
  say "systems add a primary->backup->primary round before replying.";
  let table = Table.create ~header:[ "system"; "mean us"; "p50 us"; "p99 us" ] in
  List.iter
    (fun kind ->
      let threads = 16 in
      let config =
        {
          Cluster.default_config with
          threads;
          n_clients = 2 * threads;
          keys = 4096 * threads;
          seed = mode.seed;
        }
      in
      let engine = Engine.create ~seed:mode.seed () in
      let packed, busy = Systems.build kind engine config in
      let wl =
        Workload.ycsb_t ~rng:(Mk_util.Rng.create ~seed:(mode.seed + 7919))
          ~keys:config.Cluster.keys ~theta:0.0
      in
      let r =
        Runner.run ~engine ~system:packed ~workload:wl ~n_clients:config.Cluster.n_clients
          ~warmup:500.0
          ~measure:(if mode.full then 4000.0 else 1500.0)
          ~busy
      in
      Table.add_row table
        [
          Systems.name kind;
          Printf.sprintf "%.1f" r.Runner.mean_latency;
          Printf.sprintf "%.1f" r.Runner.p50_latency;
          Printf.sprintf "%.1f" r.Runner.p99_latency;
        ])
    Systems.all;
  Table.print table

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md.                  *)
(* ------------------------------------------------------------------ *)

let ablation mode =
  heading "Ablation 1: Meerkat over the kernel UDP stack";
  say "ZCP only pays off once the transport is fast: over UDP the network";
  say "stack, not coordination, is the bottleneck (the Fig. 1 story at the";
  say "full-system level).";
  let table = Table.create ~header:[ "threads"; "Meerkat/eRPC"; "Meerkat/UDP" ] in
  List.iter
    (fun threads ->
      let run transport =
        let config =
          {
            Cluster.default_config with
            threads;
            keys = 4096 * threads;
            transport;
            seed = mode.seed;
          }
        in
        let _, r =
          Systems.sweep Systems.Meerkat ~config
            ~workload:(fun ~rng ~keys -> Workload.ycsb_t ~rng ~keys ~theta:0.0)
            ~warmup:600.0
            ~measure:(if mode.full then 3000.0 else 1200.0)
        in
        r.Runner.goodput
      in
      Table.add_row table
        [
          string_of_int threads;
          mfmt (run Transport.erpc);
          mfmt (run Transport.udp);
        ])
    (if mode.full then [ 8; 16; 32; 64 ] else [ 8; 32 ]);
  Table.print table;

  heading "Ablation 2: clock synchronization quality";
  say "Meerkat needs synchronized clocks only for performance: skew inflates";
  say "OCC aborts (reads observe 'future' versions), never breaks safety.";
  let table =
    Table.create ~header:[ "max offset (us)"; "goodput M/s"; "abort %"; "fast path %" ]
  in
  List.iter
    (fun offset ->
      let threads = 32 in
      let config =
        {
          Cluster.default_config with
          threads;
          keys = 1024 * threads;
          clock_offset = offset;
          seed = mode.seed;
        }
      in
      let _, r =
        Systems.sweep Systems.Meerkat ~config
          ~workload:(fun ~rng ~keys -> Workload.ycsb_t ~rng ~keys ~theta:0.6)
          ~warmup:600.0
          ~measure:(if mode.full then 2500.0 else 1000.0)
      in
      Table.add_row table
        [
          Printf.sprintf "%.0f" offset;
          mfmt r.Runner.goodput;
          pct r.Runner.abort_rate;
          pct r.Runner.fast_fraction;
        ])
    [ 0.0; 10.0; 100.0; 1000.0 ];
  Table.print table;

  heading "Ablation 3: fast-path quorum availability";
  say "With one replica crashed (n=3), every transaction must take the slow";
  say "path: one extra round, lower throughput - but availability persists.";
  let run_crashed crashed =
    let threads = 16 in
    let config =
      {
        Cluster.default_config with
        threads;
        n_clients = 8 * threads;
        keys = 4096 * threads;
        seed = mode.seed;
      }
    in
    let engine = Engine.create ~seed:mode.seed () in
    let sys = Mk_meerkat.Sim_system.create engine config in
    if crashed then Mk_meerkat.Sim_system.crash_replica sys 2;
    let packed =
      Intf.Packed
        ( (module struct
            type t = Mk_meerkat.Sim_system.t

            let name = Mk_meerkat.Sim_system.name
            let threads = Mk_meerkat.Sim_system.threads
            let submit = Mk_meerkat.Sim_system.submit
            let obs = Mk_meerkat.Sim_system.obs
          end),
          sys )
    in
    let wl =
      Workload.ycsb_t ~rng:(Mk_util.Rng.create ~seed:(mode.seed + 3)) ~keys:config.Cluster.keys
        ~theta:0.0
    in
    Runner.run ~engine ~system:packed ~workload:wl ~n_clients:config.Cluster.n_clients
      ~warmup:600.0
      ~measure:(if mode.full then 2500.0 else 1200.0)
      ~busy:(fun () -> Mk_meerkat.Sim_system.server_busy_fraction sys)
  in
  let healthy = run_crashed false and degraded = run_crashed true in
  let table = Table.create ~header:[ "cluster"; "goodput M/s"; "fast path %"; "p50 us" ] in
  Table.add_row table
    [
      "3/3 replicas";
      mfmt healthy.Runner.goodput;
      pct healthy.Runner.fast_fraction;
      Printf.sprintf "%.1f" healthy.Runner.p50_latency;
    ];
  Table.add_row table
    [
      "2/3 replicas";
      mfmt degraded.Runner.goodput;
      pct degraded.Runner.fast_fraction;
      Printf.sprintf "%.1f" degraded.Runner.p50_latency;
    ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* Extension: the availability gap of an in-protocol epoch change.     *)
(* ------------------------------------------------------------------ *)

let recovery mode =
  heading "Extension: replica crash + message-driven epoch change timeline";
  say "A replica crashes at t=2ms; the epoch-change protocol re-integrates";
  say "it at t=4ms. Commit throughput per 0.5 ms bucket:";
  let threads = 8 in
  let config =
    {
      Cluster.default_config with
      threads;
      n_clients = 4 * threads;
      keys = 2048 * threads;
      seed = mode.seed;
    }
  in
  let engine = Engine.create ~seed:mode.seed () in
  let sys = Mk_meerkat.Sim_system.create engine config in
  let module S = Mk_meerkat.Sim_system in
  let bucket = 500.0 in
  let horizon = if mode.full then 12_000.0 else 8_000.0 in
  let nbuckets = int_of_float (horizon /. bucket) in
  let commits = Array.make nbuckets 0 in
  let wl =
    Workload.ycsb_t ~rng:(Mk_util.Rng.create ~seed:(mode.seed + 1)) ~keys:config.Cluster.keys
      ~theta:0.0
  in
  let rec client c =
    let req = Workload.next wl in
    S.submit sys ~client:c req ~on_done:(fun ~committed ->
        let now = Engine.now engine in
        if committed && now < horizon then begin
          let b = int_of_float (now /. bucket) in
          commits.(b) <- commits.(b) + 1
        end;
        if now < horizon then client c)
  in
  for c = 0 to config.Cluster.n_clients - 1 do
    client c
  done;
  Engine.schedule_at engine 2_000.0 (fun () -> S.crash_replica sys 2);
  let change_done = ref nan in
  Engine.schedule_at engine 4_000.0 (fun () ->
      S.trigger_epoch_change sys ~recovering:[ 2 ] ~on_complete:(fun ~success ->
          if success then change_done := Engine.now engine));
  Engine.run ~until:horizon engine;
  let table = Table.create ~header:[ "time (ms)"; "commits/bucket"; "phase" ] in
  Array.iteri
    (fun i count ->
      let t0 = float_of_int i *. bucket in
      let phase =
        if t0 < 2_000.0 then "healthy (fast path)"
        else if t0 < 4_000.0 then "degraded (slow path)"
        else if t0 < !change_done then "epoch change"
        else "recovered (fast path)"
      in
      Table.add_row table
        [ Printf.sprintf "%.1f-%.1f" (t0 /. 1e3) ((t0 +. bucket) /. 1e3);
          string_of_int count; phase ])
    commits;
  Table.print table;
  say "epoch change completed at t=%.2f ms (gap: %.0f us of paused validation)"
    (!change_done /. 1e3) (!change_done -. 4_000.0)

(* ------------------------------------------------------------------ *)
(* Trace: one instrumented Meerkat window, exported as a Chrome trace. *)
(* ------------------------------------------------------------------ *)

(* Run Meerkat with tracing on under conditions that exercise every
   lifecycle phase: a lossy transport forces retransmissions, and a
   replica crash mid-window forces the slow path (n=3, so the fast
   quorum of 3 is unreachable afterwards); before the crash the fast
   path dominates. *)
let trace_experiment mode =
  heading "Trace: Meerkat lifecycle phases under drops + a replica crash";
  let threads = 8 in
  let config =
    {
      Cluster.default_config with
      threads;
      n_clients = 4 * threads;
      keys = 2048 * threads;
      transport = Transport.with_drop Transport.erpc 0.05;
      seed = mode.seed;
    }
  in
  let engine = Engine.create ~seed:mode.seed () in
  let obs =
    Mk_obs.Obs.create ~trace:true ~clock:(fun () -> Engine.now engine) ()
  in
  let sys = Mk_meerkat.Sim_system.create ~obs engine config in
  let packed =
    Intf.Packed
      ( (module struct
          type t = Mk_meerkat.Sim_system.t

          let name = Mk_meerkat.Sim_system.name
          let threads = Mk_meerkat.Sim_system.threads
          let submit = Mk_meerkat.Sim_system.submit
          let obs = Mk_meerkat.Sim_system.obs
        end),
        sys )
  in
  let warmup = 300.0 in
  let measure = if mode.full then 3000.0 else 1500.0 in
  Engine.schedule_at engine (warmup +. (measure /. 2.0)) (fun () ->
      Mk_meerkat.Sim_system.crash_replica sys 2);
  let wl =
    Workload.ycsb_t
      ~rng:(Mk_util.Rng.create ~seed:(mode.seed + 7919))
      ~keys:config.Cluster.keys ~theta:0.0
  in
  let r =
    Runner.run ~engine ~system:packed ~workload:wl
      ~n_clients:config.Cluster.n_clients ~warmup ~measure
      ~busy:(fun () -> Mk_meerkat.Sim_system.server_busy_fraction sys)
  in
  say "replica 2 crashes at t=%.0f us; drop probability %.0f%%."
    (warmup +. (measure /. 2.0))
    (100.0 *. config.Cluster.transport.Transport.drop_prob);
  Format.printf "%a@." Runner.pp_result r;
  let path = Option.value mode.trace ~default:"trace.json" in
  (try
     Mk_obs.Obs.write_chrome_trace obs ~path;
     say "wrote %d trace events to %s (load in Perfetto / chrome://tracing)"
       (Mk_obs.Tracer.length (Mk_obs.Obs.tracer obs))
       path
   with Sys_error msg -> Format.eprintf "cannot write trace: %s@." msg);
  if mode.metrics then begin
    say "";
    print_string (Mk_obs.Obs.metrics_dump obs)
  end

(* ------------------------------------------------------------------ *)
(* Shard: goodput vs shard count x cross-shard ratio (sim backend).    *)
(* ------------------------------------------------------------------ *)

(* Each shard is a full replicated Meerkat group with its own server
   threads on one discrete-event engine; cross-shard transactions run
   the client-side 2PC (DESIGN.md §13, paper §5.2.4). With per-shard
   resources held constant, aggregate goodput must grow with the
   shard count — the minimal-coordination claim SCAR's numbers set
   the bar for — and the cross-shard ratio prices the 2PC overhead.
   Every point's merged global history is checked serializable and
   the whole sweep lands in BENCH_shard.json. *)
let shard mode =
  heading "Shard: goodput vs shard count x cross-shard ratio (sim, RMW-2)";
  say "Per-shard resources held constant; the workload is two-key RMW with";
  say "the locality knob forcing the given fraction of cross-shard spans.";
  let threads = 8 (* per shard *) in
  let keys_per_thread = if mode.full then 4096 else 2048 in
  let measure = if mode.full then 3000.0 else 1200.0 in
  let shard_axis = [ 1; 2; 4 ] in
  let cross_axis = [ 0.0; 0.1; 0.3 ] in
  let module Sharded = Mk_systems.Sharded_sim in
  let point ~shards ~cross =
    let engine = Engine.create ~seed:mode.seed () in
    let config =
      {
        Cluster.default_config with
        threads;
        (* Constant contention per shard: global keyspace grows with
           the shard count (§6.2 methodology). *)
        keys = keys_per_thread * threads * shards;
        seed = mode.seed;
      }
    in
    let sys = Sharded.create engine ~shards config in
    let packed =
      Intf.Packed
        ( (module struct
            type t = Sharded.t

            let name = Sharded.name
            let threads = Sharded.threads
            let submit = Sharded.submit
            let obs = Sharded.obs
          end),
          sys )
    in
    let wl =
      Workload.rmw_pair
        ~rng:(Mk_util.Rng.create ~seed:(mode.seed + 7919))
        ~keys:config.Cluster.keys ~theta:0.0
    in
    if shards > 1 then
      Workload.set_locality wl (Some { Workload.shards; cross });
    let r =
      Runner.run ~engine ~system:packed ~workload:wl ~n_clients:(16 * shards)
        ~warmup:(measure /. 2.0) ~measure
        ~busy:(fun () -> Sharded.server_busy_fraction sys)
    in
    let serializable =
      match Mk_harness.Checker.check (Sharded.history sys) with
      | Ok () -> true
      | Error _ -> false
    in
    (shards, cross, r, serializable)
  in
  let points =
    List.concat_map
      (fun shards ->
        List.map (fun cross -> point ~shards ~cross) cross_axis)
      shard_axis
  in
  let table =
    Table.create
      ~header:
        ("shards"
        :: List.map
             (fun c -> Printf.sprintf "cross=%.0f%%" (100.0 *. c))
             cross_axis)
  in
  List.iter
    (fun shards ->
      let row =
        List.filter_map
          (fun (s, _, r, _) ->
            if s = shards then Some (mfmt r.Runner.goodput) else None)
          points
      in
      Table.add_row table (string_of_int shards :: row))
    shard_axis;
  say "Goodput (million committed txns/sec), %d server threads per shard:"
    threads;
  Table.print table;
  let goodput_at ~shards ~cross =
    List.find_map
      (fun (s, c, r, _) ->
        if s = shards && c = cross then Some r.Runner.goodput else None)
      points
    |> Option.value ~default:0.0
  in
  let base = goodput_at ~shards:1 ~cross:0.1 in
  let top = goodput_at ~shards:4 ~cross:0.1 in
  let ratio = if base > 0.0 then top /. base else 0.0 in
  say "1 -> 4 shard goodput at 10%% cross-shard: %.2fx (target >= 1.5x)" ratio;
  let body =
    String.concat ",\n  "
      (List.map
         (fun (s, c, r, serializable) ->
           Printf.sprintf
             "{\"shards\": %d, \"cross\": %.2f, \"goodput\": %.1f, \
              \"committed\": %d, \"abort_rate\": %.4f, \"p50_us\": %.1f, \
              \"p99_us\": %.1f, \"fast_fraction\": %.4f, \"serializable\": \
              %b}"
             s c r.Runner.goodput r.Runner.committed r.Runner.abort_rate
             r.Runner.p50_latency r.Runner.p99_latency r.Runner.fast_fraction
             serializable)
         points)
  in
  (try
     let oc = open_out "BENCH_shard.json" in
     Printf.fprintf oc
       "{\"experiment\": \"shard\", \"threads_per_shard\": %d, \
        \"scaling_1_to_4_at_10pct\": %.3f, \"sweep\": [\n\
       \  %s\n\
        ]}\n"
       threads ratio body;
     close_out oc;
     say "wrote BENCH_shard.json"
   with Sys_error msg ->
     Format.eprintf "cannot write BENCH_shard.json: %s@." msg);
  if List.exists (fun (_, _, _, s) -> not s) points then
    failwith "shard: serializability violation in a merged history";
  if ratio < 1.5 then
    failwith
      (Printf.sprintf
         "shard: goodput scaled only %.2fx from 1 to 4 shards at 10%% cross"
         ratio)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1);
    ("table1", table1);
    ("table2", table2);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("fig7a", fig7a);
    ("fig7b", fig7b);
    ("latency", latency);
    ("ablation", ablation);
    ("recovery", recovery);
    ("trace", trace_experiment);
    ("shard", shard);
  ]

let run_experiments names full seed trace metrics =
  let mode = { full; seed; trace; metrics } in
  let names =
    if names <> [] then names
    else if trace <> None || metrics then
      (* [--trace FILE] / [--metrics] with no experiment names: run just
         the instrumented trace experiment. *)
      [ "trace" ]
    else List.map fst experiments
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f mode
      | None ->
          Format.eprintf "unknown experiment %S; known: %s@." name
            (String.concat ", " (List.map fst experiments));
          exit 2)
    names;
  say "";
  say "total wall time: %.1f s%s" (Unix.gettimeofday () -. t0)
    (if full then " (full mode)" else " (quick mode; pass --full for longer windows)")

let () =
  let open Cmdliner in
  let names =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"
           ~doc:"Experiments to run (default: all). One of: fig1, table1, table2, \
                 fig4, fig5, fig6a, fig6b, fig7a, fig7b, latency, ablation, recovery, \
                 trace, shard.")
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Longer measurement windows and finer sweeps.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Root random seed (runs are deterministic).")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace (trace_event JSON, Perfetto-loadable) of \
                   the instrumented run to $(docv); implies the 'trace' experiment \
                   when no experiment names are given.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the metrics registry dump (counters, gauges, per-phase \
                   histograms) after the instrumented run; implies the 'trace' \
                   experiment when no experiment names are given.")
  in
  let term =
    Term.(const run_experiments $ names $ full $ seed $ trace $ metrics)
  in
  let info =
    Cmd.info "meerkat-bench"
      ~doc:"Regenerate the Meerkat paper's tables and figures in simulation"
  in
  exit (Cmd.eval (Cmd.v info term))
