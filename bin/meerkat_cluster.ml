(* meerkat_cluster: fork S shard groups of N Meerkat nodes each on
   localhost and drive them end to end (DESIGN.md §11, §13).

   The launcher forks S x N meerkat_node processes (each one whole
   replica of one group: its own domains, detector, and UDP socket),
   completes the port handshake — every node binds an ephemeral port
   and announces `port <n>'; the launcher assembles each group's
   cluster config and writes it back over each node's stdin — then
   runs closed-loop {!Mk_node.Client_driver} domains in-process
   against all groups, optionally SIGKILLs one node of group 0
   mid-run (and with --reboot restarts it from its data directory),
   broadcasts Shutdown, gathers per-node exit stats, and checks the
   merged committed history for one-copy serializability. The default
   --shards 1 is the single-group deployment; it takes the same path.

     dune exec bin/meerkat_cluster.exe -- --nodes 3 --clients 8
     dune exec bin/meerkat_cluster.exe -- --nodes 3 --duration 2 \
       --kill-node 1 --kill-after 0.5 --json BENCH_cluster.json
     dune exec bin/meerkat_cluster.exe -- --nodes 3 --duration 4 \
       --kill-node 1 --kill-after 0.5 --reboot
     dune exec bin/meerkat_cluster.exe -- --shards 2 --cross 0.1

   Exit status is non-zero on a serializability violation, lost or
   unanswered transactions, a surviving node exiting non-zero, or
   (with --kill-node) no surviving group-0 node having detected the
   victim. With --reboot the detection verdict is replaced by the
   recovery one: the victim must replay its WAL (wal_replayed > 0 in
   its exit stats) and some group-0 node must complete the §5.3.1
   epoch change that merges it back (epoch_changes > 0).

   --json writes one shape for every S: the run parameters ("shards",
   "nodes", "cores", "coordinators", "clients", "cross", "killed",
   "rebooted", "detected_by", "serializable", "failures"), "driver"
   (Client_driver.result_json) and "node_stats", one array of exit
   stats per group (null for a node that left none). The driver's
   p50/p99 run from the stamp mint to the global decision. *)

module Cluster_config = Mk_node.Cluster_config
module Driver = Mk_node.Client_driver
module Router = Mk_shard.Router
module Checker = Mk_harness.Checker
module Spawn = Mk_live.Spawn

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "meerkat_cluster: %s\n%!" msg;
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Child process plumbing                                              *)
(* ------------------------------------------------------------------ *)

(* Line-oriented reading straight off the pipe fd (no in_channel
   buffering, so select-based timeouts stay accurate). *)
type child = {
  name : string;
  pid : int;
  to_child : Unix.file_descr;
  from_child : Unix.file_descr;
  buf : Buffer.t;
  mutable eof : bool;
}

let read_line_timeout child ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let chunk = Bytes.create 4096 in
  let rec line_of_buf () =
    let s = Buffer.contents child.buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear child.buf;
        Buffer.add_string child.buf
          (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> fill ()
  and fill () =
    if child.eof then None
    else
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then None
      else
        match Unix.select [ child.from_child ] [] [] remaining with
        | [], _, _ -> None
        | _ -> (
            match Unix.read child.from_child chunk 0 (Bytes.length chunk) with
            | 0 ->
                child.eof <- true;
                None
            | n ->
                Buffer.add_subbytes child.buf chunk 0 n;
                line_of_buf ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> line_of_buf ())
  in
  line_of_buf ()

let spawn_node ~node_exe ~name ~port_arg ~cores ~keys ~shard ~heartbeat_ms
    ~data_dir ~fsync ~metrics =
  (* cloexec everywhere: create_process dup2s the child's ends onto
     fds 0/1 (clearing the flag on the duplicates), and no later
     sibling inherits this child's pipes — otherwise node0 would
     never see EOF on its config while node1's copy of the write end
     stays open. *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let args =
    [
      node_exe;
      "--me";
      name;
      "--cluster";
      "-";
      "--port";
      port_arg;
      "--cores";
      string_of_int cores;
      "--keys";
      string_of_int keys;
      "--heartbeat-ms";
      string_of_float heartbeat_ms;
    ]
    @ (if shard > 0 then [ "--shard"; string_of_int shard ] else [])
    @ (match data_dir with
      | Some dir -> [ "--data-dir"; dir; "--fsync"; fsync ]
      | None -> [])
    @ (if metrics then [ "--metrics" ] else [])
  in
  let pid =
    Unix.create_process node_exe (Array.of_list args) stdin_r stdout_w
      Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  {
    name;
    pid;
    to_child = stdin_w;
    from_child = stdout_r;
    buf = Buffer.create 256;
    eof = false;
  }

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Stats-line parsing (detection check)                                *)
(* ------------------------------------------------------------------ *)

(* The stats line is JSON we wrote ourselves (Node.stats_json); pull
   the suspected list out with a string scan instead of a JSON
   dependency. *)
let suspected_of_stats json =
  let key = "\"suspected\": [" in
  let rec find i =
    if i + String.length key > String.length json then None
    else if String.sub json i (String.length key) = key then
      Some (i + String.length key)
    else find (i + 1)
  in
  match find 0 with
  | None -> []
  | Some start -> (
      match String.index_from_opt json start ']' with
      | None -> []
      | Some stop ->
          String.sub json start (stop - start)
          |> String.split_on_char ','
          |> List.filter_map (fun s -> int_of_string_opt (String.trim s)))

(* Pull one integer field out of a stats line (same JSON-we-wrote
   rationale as above); -1 when absent. *)
let int_field_of_stats json name =
  let key = Printf.sprintf "\"%s\": " name in
  let rec find i =
    if i + String.length key > String.length json then None
    else if String.sub json i (String.length key) = key then
      Some (i + String.length key)
    else find (i + 1)
  in
  match find 0 with
  | None -> -1
  | Some start ->
      let stop = ref start in
      while
        !stop < String.length json
        && (match json.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr stop
      done;
      Option.value ~default:(-1)
        (int_of_string_opt (String.sub json start (!stop - start)))

(* One field summed over the nodes that reported stats. *)
let sum_stats_field lines name =
  Array.fold_left
    (fun acc line ->
      match line with
      | Some json -> acc + max 0 (int_field_of_stats json name)
      | None -> acc)
    0 lines

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let parse_workload = function
  | "ycsb-t" | "ycsb_t" | "ycsb" -> Ok Driver.Ycsb_t
  | "rmw-pair" | "rmw_pair" | "rmw2" -> Ok Driver.Rmw_pair
  | "retwis" -> Ok Driver.Retwis
  | s -> Error (`Msg (Printf.sprintf "unknown workload %S (ycsb-t, retwis)" s))

(* S >= 1 fleets of the same size, each its own shard group: its own
   cluster config, detector gossip, WAL directories and — on the wire —
   its own shard stamp. One in-process {!Driver} drives them all with
   the cross-shard 2PC (one group is its one-shard case); a
   --kill-node victim is killed in group 0's fleet, and every other
   group must keep committing around it. *)
let run shards nodes cores coordinators clients keys theta workload txns
    duration seed cross heartbeat_ms kill_node kill_after reboot data_dir fsync
    no_check metrics json =
  if shards < 1 then fail "--shards must be >= 1";
  if cross < 0.0 || cross > 1.0 then fail "--cross must be in [0, 1]";
  if nodes < 3 || nodes mod 2 = 0 then fail "--nodes must be odd and >= 3";
  (match kill_node with
  | Some v when v < 0 || v >= nodes -> fail "--kill-node out of range"
  | _ -> ());
  if reboot && kill_node = None then fail "--reboot needs --kill-node";
  let node_exe =
    Filename.concat (Filename.dirname Sys.executable_name) "meerkat_node.exe"
  in
  if not (Sys.file_exists node_exe) then
    fail "%s not found (build bin/meerkat_node.exe first)" node_exe;
  (* One router decides placement for the fleets AND the driver: group
     [s] serves its local share of the global [keys] under Mod
     placement, so every node is launched with its group's local key
     count. *)
  let router = Router.create ~shards ~keys () in
  let shard_keys s = Router.local_keys router ~shard:s in
  (* Node [i] of group [s]; also its data directory's relative path. *)
  let label s i =
    if shards = 1 then Printf.sprintf "node%d" i
    else Printf.sprintf "shard%d/node%d" s i
  in
  (* A reboot needs somewhere durable to reboot from. *)
  let data_base =
    match data_dir with
    | Some _ as d -> d
    | None ->
        if reboot then
          Some
            (Filename.concat
               (Filename.get_temp_dir_name ())
               (Printf.sprintf "meerkat-cluster-%d" (Unix.getpid ())))
        else None
  in
  let mkdir_p dir =
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  in
  (match data_base with
  | Some base ->
      mkdir_p base;
      if shards > 1 then
        for s = 0 to shards - 1 do
          mkdir_p (Filename.concat base (Printf.sprintf "shard%d" s))
        done
  | None -> ());
  let node_data_dir s i =
    Option.map (fun base -> Filename.concat base (label s i)) data_base
  in
  let spawn s i ~port_arg =
    spawn_node ~node_exe
      ~name:(Printf.sprintf "node%d" i)
      ~port_arg ~cores ~keys:(shard_keys s) ~shard:s ~heartbeat_ms
      ~data_dir:(node_data_dir s i) ~fsync ~metrics
  in
  (* Fork shards x nodes processes and complete every port handshake. *)
  let children =
    Array.init shards (fun s ->
        Array.init nodes (fun i -> spawn s i ~port_arg:"auto"))
  in
  let ports =
    Array.map
      (Array.map (fun child ->
           match read_line_timeout child ~timeout_s:10.0 with
           | Some line -> (
               match String.split_on_char ' ' line with
               | [ "port"; p ] -> (
                   match int_of_string_opt p with
                   | Some p -> p
                   | None -> fail "%s: bad port announcement %S" child.name line)
               | _ -> fail "%s: expected `port <n>', got %S" child.name line)
           | None -> fail "%s: no port announcement" child.name))
      children
  in
  let clusters =
    Array.mapi
      (fun s fleet ->
        Array.mapi
          (fun i child ->
            {
              Cluster_config.name = child.name;
              host = "127.0.0.1";
              port = ports.(s).(i);
            })
          fleet)
      children
  in
  let config_texts = Array.map Cluster_config.to_string clusters in
  Array.iteri
    (fun s fleet ->
      Array.iter
        (fun child ->
          write_all child.to_child config_texts.(s);
          Unix.close child.to_child)
        fleet)
    children;
  Printf.printf "cluster up: %d group(s) x %d nodes x %d cores\n%s%!" shards
    nodes cores
    (String.concat "" (Array.to_list config_texts));
  (* Arm the killer, drive the workload. With --reboot the killer is a
     kill-and-reboot: reap the SIGKILLed process, then restart it on
     its original port with its group-0 stamp and data directory — the
     new incarnation replays its WAL, advertises itself paused, and
     group 0's survivors drive the epoch change that merges it back.
     Every other group never notices. *)
  let killer =
    Option.map
      (fun victim ->
        Spawn.spawn (fun () ->
            let old = children.(0).(victim) in
            Unix.sleepf kill_after;
            Printf.printf "SIGKILL %s (pid %d) at t=%.2fs\n%!" (label 0 victim)
              old.pid kill_after;
            Unix.kill old.pid Sys.sigkill;
            if reboot then begin
              ignore (Unix.waitpid [] old.pid : int * Unix.process_status);
              (try Unix.close old.from_child
               with Unix.Unix_error (_, _, _) -> ());
              let child =
                spawn 0 victim ~port_arg:(string_of_int ports.(0).(victim))
              in
              (match read_line_timeout child ~timeout_s:10.0 with
              | Some _ -> ()
              | None ->
                  Printf.eprintf
                    "meerkat_cluster: %s: no port announcement on reboot\n%!"
                    (label 0 victim));
              write_all child.to_child config_texts.(0);
              Unix.close child.to_child;
              children.(0).(victim) <- child;
              Printf.printf "rebooted %s (pid %d) on port %d\n%!"
                (label 0 victim) child.pid ports.(0).(victim)
            end))
      kill_node
  in
  let dcfg =
    {
      Driver.default_config with
      coordinators;
      clients;
      keys;
      theta;
      workload;
      cross;
      txns_per_client = txns;
      duration;
      seed;
    }
  in
  let result =
    match Driver.run_groups dcfg ~clusters with
    | Ok r -> r
    | Error msg -> fail "driver: %s" msg
  in
  Option.iter Spawn.join killer;
  (* Shut every fleet down (per-group Shutdown stamps) and gather the
     exit stats. The Shutdown frame is UDP: resend until the stats
     line (or EOF) arrives. With --reboot the victim's replacement is
     a full member again and owes us stats like everyone else. *)
  let stats_lines = Array.make_matrix shards nodes None in
  let killed_for_good s i = s = 0 && Some i = kill_node && not reboot in
  Array.iteri
    (fun s fleet ->
      Array.iteri
        (fun i child ->
          let rec gather attempts =
            if attempts > 0 && stats_lines.(s).(i) = None then begin
              (match Driver.shutdown ~shard:s ~cluster:clusters.(s) () with
              | Ok () | Error _ -> ());
              let rec scan () =
                match read_line_timeout child ~timeout_s:2.0 with
                | None -> ()
                | Some line ->
                    if String.length line >= 6 && String.sub line 0 6 = "stats "
                    then
                      stats_lines.(s).(i) <-
                        Some (String.sub line 6 (String.length line - 6))
                    else scan ()
              in
              scan ();
              gather (attempts - 1)
            end
          in
          gather 5;
          if stats_lines.(s).(i) = None && not (killed_for_good s i) then begin
            Printf.eprintf "meerkat_cluster: %s: no stats; killing\n%!"
              (label s i);
            try Unix.kill child.pid Sys.sigkill
            with Unix.Unix_error (_, _, _) -> ()
          end)
        fleet)
    children;
  let exits =
    Array.map
      (Array.map (fun child -> snd (Unix.waitpid [] child.pid)))
      children
  in
  (* Verdicts. *)
  let failures = ref 0 in
  let fail_check fmt =
    Printf.ksprintf
      (fun msg ->
        incr failures;
        Printf.printf "FAILED: %s\n%!" msg)
      fmt
  in
  Printf.printf
    "driver: %d committed (%d cross-shard), %d aborted (%d fast / %d slow \
     sub-attempts), %d retransmits, %.0f txn/s, p50 %.0f us, p99 %.0f us\n\
     wire: %d tx, %d rx (%d / %d datagrams), %d decode errors, %d shard \
     drops\n\
     %!"
    result.Driver.committed_count result.Driver.cross_shard
    result.Driver.aborted result.Driver.fast_path result.Driver.slow_path
    result.Driver.retransmits result.Driver.throughput result.Driver.p50_us
    result.Driver.p99_us result.Driver.wire_msgs_tx result.Driver.wire_msgs_rx
    result.Driver.wire_dgrams_tx result.Driver.wire_dgrams_rx
    result.Driver.wire_decode_errors result.Driver.wire_shard_drops;
  if result.Driver.acked <> result.Driver.submitted then
    fail_check "unanswered transactions: %d submitted, %d acked"
      result.Driver.submitted result.Driver.acked;
  (if duration = None then
     let decided = result.Driver.committed_count + result.Driver.aborted in
     let expected = clients * txns in
     if decided <> expected then
       fail_check "lost transactions: %d decided, %d submitted" decided expected);
  let serializable =
    if no_check then true
    else
      match Checker.check result.Driver.committed with
      | Ok () ->
          Printf.printf "serializable: yes (%d commits)\n%!"
            result.Driver.committed_count;
          true
      | Error v ->
          fail_check "serializability violation: %s"
            (Format.asprintf "%a" Checker.pp_violation v);
          false
  in
  let detected_by = ref [] in
  Array.iteri
    (fun s fleet ->
      Array.iteri
        (fun i _ ->
          let killed = killed_for_good s i in
          (match (stats_lines.(s).(i), killed) with
          | Some json, _ -> (
              Printf.printf "%s: %s\n%!" (label s i) json;
              match kill_node with
              | Some victim
                when s = 0 && List.mem victim (suspected_of_stats json) ->
                  detected_by := i :: !detected_by
              | _ -> ())
          | None, true -> Printf.printf "%s: killed (no stats)\n%!" (label s i)
          | None, false -> fail_check "%s: no exit stats" (label s i));
          match (exits.(s).(i), killed) with
          | Unix.WEXITED 0, false -> ()
          | Unix.WSIGNALED _, true -> ()
          | status, _ ->
              let st =
                match status with
                | Unix.WEXITED c -> Printf.sprintf "exit %d" c
                | Unix.WSIGNALED sg -> Printf.sprintf "signal %d" sg
                | Unix.WSTOPPED sg -> Printf.sprintf "stopped %d" sg
              in
              fail_check "%s: unexpected status (%s)" (label s i) st)
        fleet)
    children;
  (match kill_node with
  | Some victim when reboot ->
      (* Kill-and-reboot verdicts: the victim must have rebooted from
         its data directory (it restored snapshots and/or replayed log
         records — a snapshot written just before the SIGKILL can
         leave an empty log suffix, so neither alone is required), and
         its group must have driven the §5.3.1 epoch change that
         merged it back. Suspicion at shutdown is NOT required — a
         successfully reintegrated replica earns a fresh grace period,
         so lingering suspicion would be the bug, not the proof. *)
      (match stats_lines.(0).(victim) with
      | None -> fail_check "%s: no stats after reboot" (label 0 victim)
      | Some json ->
          let replayed = int_field_of_stats json "wal_replayed" in
          let snaps = int_field_of_stats json "wal_snapshots_used" in
          if replayed + snaps <= 0 then
            fail_check
              "%s rebooted without recovering anything from its data \
               directory"
              (label 0 victim)
          else
            Printf.printf
              "%s rebooted: %d snapshot(s) restored, %d log records \
               replayed\n\
               %!"
              (label 0 victim) snaps replayed);
      let epoch_changes = sum_stats_field stats_lines.(0) "epoch_changes" in
      if epoch_changes <= 0 then
        fail_check
          "no group-0 node completed an epoch change merging %s back \
           (wire_send_errors: %d)"
          (label 0 victim)
          (sum_stats_field stats_lines.(0) "wire_send_errors")
      else
        Printf.printf "epoch changes: %d (%s merged back)\n%!" epoch_changes
          (label 0 victim)
  | Some victim ->
      if !detected_by = [] then
        fail_check "no surviving group-0 node suspected %s" (label 0 victim)
      else
        Printf.printf "%s suspected by: %s\n%!" (label 0 victim)
          (String.concat ", " (List.map (label 0) (List.rev !detected_by)))
  | None -> ());
  (match json with
  | None -> ()
  | Some path -> (
      let node_stats =
        String.concat ",\n    "
          (Array.to_list
             (Array.map
                (fun fleet ->
                  Printf.sprintf "[%s]"
                    (String.concat ", "
                       (Array.to_list
                          (Array.map (Option.value ~default:"null") fleet))))
                stats_lines))
      in
      let body =
        Printf.sprintf
          "{\"experiment\": \"cluster\", \"shards\": %d, \"nodes\": %d, \
           \"cores\": %d, \"coordinators\": %d, \"clients\": %d, \"cross\": \
           %.2f, \"killed\": %d, \"rebooted\": %b, \"detected_by\": [%s], \
           \"serializable\": %b, \"failures\": %d,\n\
          \  \"driver\": %s,\n\
          \  \"node_stats\": [\n\
          \    %s\n\
          \  ]}\n"
          shards nodes cores coordinators clients cross
          (match kill_node with Some v -> v | None -> -1)
          reboot
          (String.concat ", " (List.map string_of_int (List.rev !detected_by)))
          serializable !failures (Driver.result_json result) node_stats
      in
      try
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc body);
        Printf.printf "wrote %s\n%!" path
      with Sys_error msg -> Printf.eprintf "meerkat_cluster: %s\n%!" msg));
  if !failures > 0 then begin
    Printf.printf "%d check(s) FAILED\n%!" !failures;
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
             | Driver.Ycsb_t -> "ycsb-t"
             | Driver.Rmw_pair -> "rmw-pair"
             | Driver.Retwis -> "retwis")
      )
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Shard groups (DESIGN.md §13): fork $(docv) independent fleets of \
             --nodes each and drive them with the cross-shard 2PC client \
             driver. The default 1 is the single-group deployment.")
  in
  let nodes =
    Arg.(
      value & opt int 3
      & info [ "nodes"; "n" ] ~doc:"Nodes per shard group (odd, >= 3).")
  in
  let cores =
    Arg.(value & opt int 2 & info [ "cores" ] ~doc:"Server domains per node.")
  in
  let coordinators =
    Arg.(
      value & opt int 2
      & info [ "coordinators" ] ~doc:"Client driver domains (in-process).")
  in
  let clients =
    Arg.(value & opt int 8 & info [ "clients"; "c" ] ~doc:"Closed-loop clients.")
  in
  let keys = Arg.(value & opt int 1024 & info [ "keys" ] ~doc:"Keyspace size.") in
  let theta =
    Arg.(value & opt float 0.6 & info [ "theta" ] ~doc:"Zipf skew in [0, 1).")
  in
  let workload =
    Arg.(
      value & opt workload_conv Driver.Ycsb_t
      & info [ "workload"; "w" ] ~doc:"Workload: ycsb-t or retwis.")
  in
  let txns =
    Arg.(
      value & opt int 50
      & info [ "txns" ] ~doc:"Transactions per client (ignored with --duration).")
  in
  let duration =
    Arg.(
      value & opt (some float) None
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Keep submitting for $(docv) of wall time instead of a quota.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let cross =
    Arg.(
      value & opt float 0.1
      & info [ "cross" ] ~docv:"P"
          ~doc:
            "Probability a multi-key transaction spans more than one shard \
             (only meaningful with --shards > 1).")
  in
  let heartbeat_ms =
    Arg.(
      value & opt float 25.0
      & info [ "heartbeat-ms" ] ~doc:"Node heartbeat period (milliseconds).")
  in
  let kill_node =
    Arg.(
      value & opt (some int) None
      & info [ "kill-node" ] ~docv:"ID"
          ~doc:
            "SIGKILL node $(docv) of group 0 after --kill-after seconds; its \
             surviving peers must detect it (exit stats' suspected list).")
  in
  let kill_after =
    Arg.(
      value & opt float 0.5
      & info [ "kill-after" ] ~docv:"SECONDS" ~doc:"When to kill (--kill-node).")
  in
  let reboot =
    Arg.(
      value & flag
      & info [ "reboot" ]
          ~doc:
            "After SIGKILLing the --kill-node victim, restart it on its \
             original port from its data directory; the run then checks that \
             it replayed its WAL and that an epoch change merged it back.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Give each node a WAL + snapshot directory under $(docv). \
             Implied (in a temp directory) by --reboot.")
  in
  let fsync =
    Arg.(
      value & opt string "every=8"
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:"Node WAL fsync policy: always, every=N, or never.")
  in
  let no_check =
    Arg.(
      value & flag
      & info [ "no-check" ]
          ~doc:"Skip the serializability check of the committed history.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Nodes dump their metrics registry at exit.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the run summary to $(docv).")
  in
  let term =
    Term.(
      const run $ shards $ nodes $ cores $ coordinators $ clients $ keys
      $ theta $ workload $ txns $ duration $ seed $ cross $ heartbeat_ms
      $ kill_node $ kill_after $ reboot $ data_dir $ fsync $ no_check $ metrics
      $ json)
  in
  let info =
    Cmd.info "meerkat_cluster"
      ~doc:
        "Fork an N-node Meerkat cluster on localhost (one OS process per \
         replica, UDP transport) and drive it end to end"
  in
  exit (Cmd.eval (Cmd.v info term))
