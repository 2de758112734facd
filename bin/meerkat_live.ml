(* meerkat_live: the full Meerkat protocol on real OCaml 5 domains.

   Runs the Mk_live runtime — the extracted coordinator state machine
   over real replicas connected by bounded MPSC mailboxes — for one or
   more seeds, prints a report per run, checks every committed history
   for one-copy serializability, and optionally writes the aggregate
   as JSON. Exits non-zero on a serializability violation, when a
   client's transactions went missing or unanswered, or when a run
   allocates past --max-alloc-per-txn. Every option applies at every
   shard count; --nemesis needs --shards 1.

     dune exec bin/meerkat_live.exe -- --domains 4 --clients 16
     dune exec bin/meerkat_live.exe -- --seeds 8 --json BENCH_live.json *)

module Runtime = Mk_live.Runtime
module Checker = Mk_harness.Checker
module Nemesis = Mk_fault.Nemesis

let parse_workload = function
  | "ycsb-t" | "ycsb_t" | "ycsb" -> Ok Runtime.Ycsb_t
  | "rmw-pair" | "rmw_pair" | "rmw2" -> Ok Runtime.Rmw_pair
  | "retwis" -> Ok Runtime.Retwis
  | s ->
      Error
        (`Msg (Printf.sprintf "unknown workload %S (ycsb-t, rmw-pair, retwis)" s))

let run shards cross domains replicas coordinators clients keys theta workload
    txns duration rate max_alloc nemesis seed nseeds no_check json =
  if shards < 1 then begin
    Format.eprintf "meerkat_live: --shards must be >= 1@.";
    exit 2
  end;
  if shards > 1 && nemesis <> None then begin
    Format.eprintf
      "meerkat_live: --nemesis needs --shards 1 (chaos is single-group by \
       design; use meerkat_cluster --kill-node for multi-shard faults)@.";
    exit 2
  end;
  let duration =
    (* A nemesis plan needs a horizon; default to one wall second. *)
    match (nemesis, duration) with
    | Some _, None -> Some 1.0
    | _ -> duration
  in
  let chaos_of_seed seed =
    Option.map
      (fun profile ->
        let horizon_us = Option.get duration *. 1e6 in
        {
          Runtime.plan =
            Nemesis.plan ~seed ~profile ~horizon:horizon_us
              ~n_replicas:replicas ~n_clients:clients;
          detector = Runtime.chaos_detector_cfg ~horizon_us;
          horizon_us;
          settle_us = horizon_us /. 2.0;
        })
      nemesis
  in
  let cfg =
    {
      Runtime.default_config with
      shards;
      cross;
      server_domains = domains;
      n_replicas = replicas;
      coordinators;
      clients;
      keys;
      theta;
      workload;
      txns_per_client = txns;
      duration;
      offered_rate = rate;
    }
  in
  let cfg =
    (* Chaos-scale retransmission: drops must be retried well inside
       the horizon, not after the fault-free safety-net timeout. *)
    match nemesis with
    | Some _ -> { cfg with Runtime.rto_us = Option.get duration *. 1e6 /. 50.0 }
    | None -> cfg
  in
  let failures = ref 0 in
  let reports =
    List.map
      (fun seed ->
        let r = Runtime.run { cfg with Runtime.seed; chaos = chaos_of_seed seed } in
        Format.printf "seed %d:@.  %a@." seed Runtime.pp_report r;
        let expected = clients * txns in
        if duration = None && r.Runtime.committed_count + r.Runtime.aborted <> expected
        then begin
          incr failures;
          Format.printf "  LOST TRANSACTIONS: %d decided, %d submitted@."
            (r.Runtime.committed_count + r.Runtime.aborted)
            expected
        end;
        if r.Runtime.acked <> r.Runtime.submitted then begin
          incr failures;
          Format.printf "  UNANSWERED TRANSACTIONS: %d submitted, %d acked@."
            r.Runtime.submitted r.Runtime.acked
        end;
        if not no_check then begin
          match Checker.check r.Runtime.committed with
          | Ok () ->
              Format.printf "  serializable: yes (%d commits, %d cross-shard)@."
                r.Runtime.committed_count r.Runtime.cross_shard
          | Error v ->
              incr failures;
              Format.printf "  SERIALIZABILITY VIOLATION: %a@." Checker.pp_violation v
        end;
        (match max_alloc with
        | Some bound when r.Runtime.alloc_per_txn > bound ->
            incr failures;
            Format.printf
              "  ALLOC REGRESSION: %d minor words/txn exceeds the bound %d@."
              r.Runtime.alloc_per_txn bound
        | _ -> ());
        (seed, r))
      (List.init nseeds (fun i -> seed + i))
  in
  (match json with
  | None -> ()
  | Some path -> (
      let body =
        String.concat ",\n  "
          (List.map
             (fun (seed, r) ->
               Printf.sprintf "{\"seed\": %d, \"report\": %s}" seed
                 (Runtime.report_json r))
             reports)
      in
      try
        let oc = open_out path in
        Printf.fprintf oc "{\"experiment\": \"live\", \"runs\": [\n  %s\n]}\n" body;
        close_out oc;
        Format.printf "wrote %s@." path
      with Sys_error msg -> Format.eprintf "meerkat_live: %s@." msg));
  if !failures > 0 then begin
    Format.printf "%d run(s) FAILED@." !failures;
    exit 1
  end

let () =
  let open Cmdliner in
  let workload_conv =
    Arg.conv
      ( parse_workload,
        fun ppf w ->
          Format.pp_print_string ppf
            (match w with
             | Runtime.Ycsb_t -> "ycsb-t"
             | Runtime.Rmw_pair -> "rmw-pair"
             | Runtime.Retwis -> "retwis")
      )
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards"; "s" ]
             ~doc:"Shard groups: independent replica groups, client-side \
                   cross-shard 2PC, and a serializability check of the \
                   merged history.")
  in
  let cross =
    Arg.(value & opt float 0.1
         & info [ "cross" ]
             ~doc:"Probability a multi-key transaction spans more than one \
                   shard (only meaningful with --shards > 1).")
  in
  let domains =
    Arg.(value & opt int 2
         & info [ "domains"; "d" ] ~doc:"Server domains (cores per replica).")
  in
  let replicas =
    Arg.(value & opt int 3 & info [ "replicas" ] ~doc:"Replicas (odd, >= 3).")
  in
  let coordinators =
    Arg.(value & opt int 2 & info [ "coordinators" ] ~doc:"Coordinator domains.")
  in
  let clients =
    Arg.(value & opt int 8 & info [ "clients"; "c" ] ~doc:"Closed-loop clients.")
  in
  let keys = Arg.(value & opt int 1024 & info [ "keys" ] ~doc:"Keyspace size.") in
  let theta =
    Arg.(value & opt float 0.6 & info [ "theta" ] ~doc:"Zipf skew in [0, 1).")
  in
  let workload =
    Arg.(value & opt workload_conv Runtime.Ycsb_t
         & info [ "workload"; "w" ] ~doc:"Workload: ycsb-t or retwis.")
  in
  let txns =
    Arg.(value & opt int 50
         & info [ "txns" ] ~doc:"Transactions per client (ignored with --duration).")
  in
  let duration =
    Arg.(value & opt (some float) None
         & info [ "duration" ] ~docv:"SECONDS"
             ~doc:"Keep submitting for $(docv) of wall time instead of a \
                   per-client transaction quota.")
  in
  let rate =
    Arg.(value & opt (some float) None
         & info [ "rate" ] ~docv:"TXN_PER_S"
             ~doc:"Open-loop load generation: offer $(docv) transactions per \
                   second in aggregate across all clients, on a fixed \
                   phase-staggered schedule. Latency is measured from each \
                   transaction's intended launch instant, so a saturated \
                   system reports its queueing delay (no coordinated \
                   omission). Without this flag the clients run closed-loop.")
  in
  let max_alloc =
    Arg.(value & opt (some int) None
         & info [ "max-alloc-per-txn" ] ~docv:"WORDS"
             ~doc:"Fail (exit non-zero) if any run allocates more than \
                   $(docv) minor words per committed transaction — the CI \
                   allocation-regression guard.")
  in
  let nemesis_conv =
    Arg.conv
      ( (fun s ->
          match Nemesis.of_string s with
          | Some p -> Ok p
          | None ->
              Error
                (`Msg
                   (Printf.sprintf "unknown profile %S (known: %s)" s
                      (String.concat ", "
                         (List.map Nemesis.to_string Nemesis.all))))),
        fun ppf p -> Format.pp_print_string ppf (Nemesis.to_string p) )
  in
  let nemesis =
    Arg.(value & opt (some nemesis_conv) None
         & info [ "nemesis" ] ~docv:"PROFILE"
             ~doc:"Inject a seeded nemesis plan ($(docv): one of calm, dup, \
                   reorder, partition, crash-replica, crash-coordinator, \
                   combo) and run detector-driven recovery. Implies \
                   --duration 1.0 unless --duration is given.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"First seed.") in
  let nseeds =
    Arg.(value & opt int 1 & info [ "seeds" ] ~doc:"Number of seeds to run.")
  in
  let no_check =
    Arg.(value & flag
         & info [ "no-check" ]
             ~doc:"Skip the serializability check of the committed history.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write all reports to $(docv) as JSON.")
  in
  let term =
    Term.(const run $ shards $ cross $ domains $ replicas $ coordinators
          $ clients $ keys $ theta $ workload $ txns $ duration $ rate
          $ max_alloc $ nemesis $ seed $ nseeds $ no_check $ json)
  in
  let info =
    Cmd.info "meerkat_live"
      ~doc:"Meerkat on real OCaml 5 domains with a live message-passing runtime"
  in
  exit (Cmd.eval (Cmd.v info term))
