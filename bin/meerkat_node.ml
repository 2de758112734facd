(* meerkat_node: one Meerkat server node — one whole replica in one
   OS process, speaking the wire protocol over UDP (DESIGN.md §11).

   Launcher protocol (what meerkat_cluster drives over pipes):
   - the node binds its socket first ([--port auto] picks an
     ephemeral one) and prints `port <n>' on stdout before anything
     else;
   - [--cluster -] then reads the membership (`name host:port' lines)
     from stdin until EOF — the launcher assembles it from every
     node's port announcement and closes the pipe;
   - on a Shutdown frame the node stops and prints `stats <json>'.

   Standalone use works too, with a config file and fixed ports:

     meerkat_node --me node0 --cluster cluster.conf --port 7000 &
     meerkat_node --me node1 --cluster cluster.conf --port 7001 &
     meerkat_node --me node2 --cluster cluster.conf --port 7002 & *)

module Node = Mk_node.Node
module Cluster_config = Mk_node.Cluster_config

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "meerkat_node: %s\n%!" msg;
      exit 2)
    fmt

let parse_port = function
  | "auto" -> Ok 0
  | s -> (
      match int_of_string_opt s with
      | Some p when p >= 1 && p <= 65535 -> Ok p
      | Some p -> Error (`Msg (Printf.sprintf "port %d out of range" p))
      | None -> Error (`Msg (Printf.sprintf "bad port %S (number or auto)" s)))

let run me cluster_src port cores keys shard heartbeat_ms rto_ms data_dir fsync
    metrics =
  (* Node.launch carries this size over to every core domain. *)
  Gc.set { (Gc.get ()) with minor_heap_size = Node.minor_heap_words };
  (* Bind before reading the config: with `--cluster -' the launcher
     needs our `port' line to finish assembling the config it will
     send us. *)
  let bound =
    match Node.bind ~port () with
    | Ok b -> b
    | Error msg -> fail "bind: %s" msg
  in
  Printf.printf "port %d\n%!" (Node.bound_port bound);
  let cluster =
    match
      match cluster_src with
      | `File path -> Cluster_config.load path
      | `Stdin -> Cluster_config.parse (In_channel.input_all In_channel.stdin)
    with
    | Ok c -> c
    | Error msg -> fail "cluster config: %s" msg
  in
  let id =
    match Cluster_config.find cluster me with
    | Some id -> id
    | None -> fail "node %S not in the cluster config" me
  in
  let cfg =
    {
      Node.default_config with
      me = id;
      cores;
      keys;
      shard;
      detector = Some (Node.detector_cfg ~heartbeat_ms);
      rto_us = rto_ms *. 1000.0;
      data_dir;
      fsync =
        (match Mk_durable.Wal.policy_of_string fsync with
        | Some p -> p
        | None -> fail "bad --fsync %S (always, never, or every=N)" fsync);
    }
  in
  let node = Node.create bound cfg ~n_replicas:(Array.length cluster) in
  (match Node.launch node ~cluster with
  | Ok () -> ()
  | Error msg -> fail "launch: %s" msg);
  let stats = Node.wait node in
  if metrics then print_string (Mk_obs.Obs.metrics_dump (Node.obs node));
  Printf.printf "stats %s\n%!" (Node.stats_json stats)

let () =
  let open Cmdliner in
  let port_conv =
    Arg.conv (parse_port, fun ppf p -> Format.fprintf ppf "%d" p)
  in
  let me =
    Arg.(
      required
      & opt (some string) None
      & info [ "me" ] ~docv:"NAME" ~doc:"This node's name in the cluster config.")
  in
  let cluster =
    Arg.(
      required
      & opt (some string) None
      & info [ "cluster" ] ~docv:"FILE"
          ~doc:
            "Cluster config: `name host:port' lines, replica ids by line \
             order. `-' reads it from stdin (until EOF) $(i,after) the port \
             announcement — the launcher handshake.")
  in
  let port =
    Arg.(
      value & opt port_conv 0
      & info [ "port" ] ~docv:"PORT|auto"
          ~doc:
            "UDP port to bind; `auto' (the default) binds an ephemeral port. \
             Either way the bound port is printed as `port <n>' on stdout \
             first.")
  in
  let cores =
    Arg.(
      value & opt int 2
      & info [ "cores" ] ~doc:"Server domains (trecord cores) in this node.")
  in
  let keys = Arg.(value & opt int 1024 & info [ "keys" ] ~doc:"Keyspace size.") in
  let shard =
    Arg.(
      value & opt int 0
      & info [ "shard" ] ~docv:"S"
          ~doc:
            "Shard group this node belongs to (multi-group deployments, \
             DESIGN.md §13). Every frame is stamped with it; frames stamped \
             otherwise are counted drops. The default 0 is a single-group \
             deployment.")
  in
  let heartbeat_ms =
    Arg.(
      value & opt float 25.0
      & info [ "heartbeat-ms" ]
          ~doc:"Failure-detector heartbeat period (milliseconds).")
  in
  let rto_ms =
    Arg.(
      value & opt float 100.0
      & info [ "rto-ms" ] ~doc:"View-change retransmission base (milliseconds).")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Persist per-core WAL + snapshot files under $(docv) (created if \
             absent). A process SIGKILLed and restarted with the same \
             $(docv) replays its state and rejoins via the epoch change.")
  in
  let fsync =
    Arg.(
      value & opt string "every=8"
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:
            "WAL fsync policy: `always' (durable on ack), `every=N' (group \
             commit), or `never' (crash-consistent only). Only meaningful \
             with $(b,--data-dir).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Dump the metrics registry (wire counters included) at exit.")
  in
  let wrap me cluster port cores keys shard heartbeat_ms rto_ms data_dir fsync
      metrics =
    let src = if cluster = "-" then `Stdin else `File cluster in
    run me src port cores keys shard heartbeat_ms rto_ms data_dir fsync metrics
  in
  let term =
    Term.(
      const wrap $ me $ cluster $ port $ cores $ keys $ shard $ heartbeat_ms
      $ rto_ms $ data_dir $ fsync $ metrics)
  in
  let info =
    Cmd.info "meerkat_node"
      ~doc:"One Meerkat server node (one replica per OS process, UDP transport)"
  in
  exit (Cmd.eval (Cmd.v info term))
