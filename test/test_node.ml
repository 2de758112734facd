(* The cross-process cluster backend, exercised in one process:
   cluster-config parsing, node lifecycle validation, and a real
   3-node UDP-loopback cluster — bind/create/launch three replicas,
   drive a closed-loop workload through the client driver, check the
   merged history serializable, verify heartbeat-based failure
   detection when one node goes silent (DESIGN.md §11), bound the
   per-core checkpoints a durable cluster writes (DESIGN.md §12), and
   check that an abandoned epoch change leaves the node serving. *)

module Cluster_config = Mk_node.Cluster_config
module Node = Mk_node.Node
module Driver = Mk_node.Client_driver
module Checker = Mk_harness.Checker
module Detector = Mk_meerkat.Detector
module Codec = Mk_wire.Codec
module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid
module Txn = Mk_storage.Txn
module Replica = Mk_meerkat.Replica
module Walcodec = Mk_durable.Walcodec
module Wal = Mk_durable.Wal
module Snapshot = Mk_durable.Snapshot
module Recover = Mk_durable.Recover
module Read_table = Mk_node.Read_table
module Wire = Mk_wire.Wire

(* --- cluster config --- *)

let test_config_parse () =
  let text =
    "# deployment\n\nnode0 127.0.0.1:5000\nnode1 localhost:5001\n\
     node2 10.0.0.3:65535\n"
  in
  match Cluster_config.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok cfg ->
      Alcotest.(check int) "three nodes" 3 (Array.length cfg);
      Alcotest.(check string) "name" "node1" cfg.(1).Cluster_config.name;
      Alcotest.(check string) "host" "localhost" cfg.(1).Cluster_config.host;
      Alcotest.(check int) "port" 65535 cfg.(2).Cluster_config.port;
      Alcotest.(check (option int)) "find" (Some 2)
        (Cluster_config.find cfg "node2");
      Alcotest.(check (option int)) "find missing" None
        (Cluster_config.find cfg "node9")

let test_config_roundtrip () =
  let text = "a 127.0.0.1:1\nb ::1:2\nc host.example:3\n" in
  match Cluster_config.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok cfg -> (
      (* The host keeps everything before the last ':', so numeric
         IPv6 hosts survive the round trip. *)
      Alcotest.(check string) "ipv6 host" "::1" cfg.(1).Cluster_config.host;
      match Cluster_config.parse (Cluster_config.to_string cfg) with
      | Error e -> Alcotest.failf "reparse failed: %s" e
      | Ok cfg' ->
          Alcotest.(check string) "canonical text round-trips"
            (Cluster_config.to_string cfg)
            (Cluster_config.to_string cfg'))

let expect_parse_error what text =
  match Cluster_config.parse text with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s accepted" what

let test_config_errors () =
  expect_parse_error "empty config" "# only comments\n\n";
  expect_parse_error "missing port" "node0 127.0.0.1\n";
  expect_parse_error "port zero" "node0 127.0.0.1:0\n";
  expect_parse_error "port overflow" "node0 127.0.0.1:70000\n";
  expect_parse_error "non-numeric port" "node0 127.0.0.1:abc\n";
  expect_parse_error "extra tokens" "node0 127.0.0.1:5000 extra\n";
  expect_parse_error "duplicate name" "n 127.0.0.1:1\nn 127.0.0.1:2\n";
  (* Errors carry the offending line number. *)
  match Cluster_config.parse "ok 127.0.0.1:1\nbad\n" with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error e ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error mentions line 2: %S" e)
        true
        (contains e "line 2")

(* --- node lifecycle validation --- *)

let test_create_validates () =
  let expect_invalid what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  let with_bound f =
    match Node.bind () with
    | Error e -> Alcotest.failf "bind failed: %s" e
    | Ok b ->
        Alcotest.(check bool) "ephemeral port" true (Node.bound_port b > 0);
        f b
  in
  with_bound (fun b ->
      expect_invalid "zero cores" (fun () ->
          Node.create b { Node.default_config with Node.cores = 0 } ~n_replicas:3));
  with_bound (fun b ->
      expect_invalid "even replica count" (fun () ->
          Node.create b Node.default_config ~n_replicas:4));
  with_bound (fun b ->
      expect_invalid "me out of range" (fun () ->
          Node.create b { Node.default_config with Node.me = 3 } ~n_replicas:3))

let test_detector_cfg_scaling () =
  let cfg = Node.detector_cfg ~heartbeat_ms:10.0 in
  Alcotest.(check (float 1e-6)) "suspect after 6 missed heartbeats" 60_000.0
    cfg.Detector.heartbeat_timeout;
  Alcotest.(check bool) "pause tolerance above suspicion" true
    (cfg.Detector.pause_timeout > cfg.Detector.heartbeat_timeout)

(* --- a real 3-node cluster on UDP loopback --- *)

let bind_cluster n =
  let bound =
    Array.init n (fun i ->
        match Node.bind () with
        | Ok b -> b
        | Error e -> Alcotest.failf "bind node%d: %s" i e)
  in
  let cluster =
    Array.mapi
      (fun i b ->
        {
          Cluster_config.name = Printf.sprintf "node%d" i;
          host = "127.0.0.1";
          port = Node.bound_port b;
        })
      bound
  in
  (bound, cluster)

let launch_cluster ?(heartbeat_ms = 10.0) ?(shard = 0) ?(cores = 2)
    ?(configure = fun _ c -> c) ?(prepare = fun _ _ -> ()) ~keys bound cluster
    =
  let n = Array.length bound in
  Array.mapi
    (fun i b ->
      let cfg =
        configure i
          {
            Node.default_config with
            Node.me = i;
            cores;
            keys;
            shard;
            detector = Some (Node.detector_cfg ~heartbeat_ms);
          }
      in
      let node = Node.create b cfg ~n_replicas:n in
      prepare i node;
      (match Node.launch node ~cluster with
      | Ok () -> ()
      | Error e -> Alcotest.failf "launch node%d: %s" i e);
      node)
    bound

let test_cluster_serializable ~cores () =
  let keys = 64 in
  let bound, cluster = bind_cluster 3 in
  let nodes = launch_cluster ~cores ~keys bound cluster in
  let driver_cfg =
    {
      Driver.default_config with
      Driver.coordinators = 2;
      clients = 6;
      keys;
      txns_per_client = 15;
      seed = 11;
    }
  in
  let result =
    match Driver.run driver_cfg ~cluster with
    | Ok r -> r
    | Error e -> Alcotest.failf "driver: %s" e
  in
  (match Driver.shutdown ~cluster () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "shutdown: %s" e);
  let stats = Array.map Node.wait nodes in
  Alcotest.(check int) "every client got every answer" result.Driver.submitted
    result.Driver.acked;
  Alcotest.(check int) "coordinator domains run the node's minor heap"
    Node.minor_heap_words result.Driver.minor_heap_words;
  Alcotest.(check bool) "not the runtime's default" true
    (Node.minor_heap_words <> 262_144);
  Alcotest.(check int) "90 transactions resolved" 90
    (result.Driver.committed_count + result.Driver.aborted);
  Alcotest.(check bool) "some commits" true (result.Driver.committed_count > 0);
  (match Checker.check result.Driver.committed with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "not serializable: %a" Checker.pp_violation v);
  Array.iter
    (fun (s : Node.stats) ->
      Alcotest.(check (list int))
        (Printf.sprintf "node%d suspects nobody" s.Node.me)
        [] s.Node.suspected;
      Alcotest.(check int)
        (Printf.sprintf "node%d clean wire" s.Node.me)
        0 s.Node.wire_decode_errors;
      Alcotest.(check bool)
        (Printf.sprintf "node%d validated" s.Node.me)
        true
        (s.Node.validations_ok > 0 && s.Node.wire_msgs_rx > 0
       && s.Node.wire_msgs_tx > 0))
    stats

let test_cluster_survives_hostile_frames () =
  (* Well-framed datagrams carrying out-of-range replica ids (hostile
     peer, misconfigured deployment, bit-flipped genuine frame) index
     detector and view-change arrays if taken at face value. They must
     be counted drops: the loop thread survives and the cluster still
     serves a real workload afterwards. *)
  let keys = 16 in
  let bound, cluster = bind_cluster 3 in
  let nodes = launch_cluster ~heartbeat_ms:10.0 ~keys bound cluster in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let dst =
    Unix.ADDR_INET (Unix.inet_addr_loopback, cluster.(0).Cluster_config.port)
  in
  let raw s =
    ignore (Unix.sendto_substring sock s 0 (String.length s) [] dst : int)
  in
  let send msg = raw (Codec.encode msg) in
  let tid = Tid.make ~seq:1 ~client_id:1 in
  send (Codec.Heartbeat { from_ = 999; paused = false });
  send (Codec.Heartbeat { from_ = -1; paused = true });
  send
    (Codec.Vc_accept_reply
       { observer = 0; replica = 4096; tid; view = 1; reply = `Accepted });
  send
    (Codec.Coord_reply { observer = 0; replica = -5; tid; view = 1; reply = `Stale 3 });
  raw "MK not a frame at all";
  Unix.close sock;
  (* Let the loop thread eat the poison before real load arrives. *)
  Unix.sleepf 0.05;
  let driver_cfg =
    {
      Driver.default_config with
      Driver.coordinators = 1;
      clients = 3;
      keys;
      txns_per_client = 5;
      seed = 7;
    }
  in
  let result =
    match Driver.run driver_cfg ~cluster with
    | Ok r -> r
    | Error e -> Alcotest.failf "driver: %s" e
  in
  (match Driver.shutdown ~cluster () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "shutdown: %s" e);
  let stats = Array.map Node.wait nodes in
  Alcotest.(check int) "workload resolved after poison" 15
    (result.Driver.committed_count + result.Driver.aborted);
  (match Checker.check result.Driver.committed with
  | Ok () -> ()
  | Error v -> Alcotest.failf "not serializable: %a" Checker.pp_violation v);
  (* 4 id-rejected frames + 1 garbage datagram; allow one UDP loss. *)
  Alcotest.(check bool) "poison counted as decode errors" true
    (stats.(0).Node.wire_decode_errors >= 4);
  Array.iter
    (fun (s : Node.stats) ->
      Alcotest.(check (list int))
        (Printf.sprintf "node%d suspects nobody" s.Node.me)
        [] s.Node.suspected)
    stats

let test_shim_counts_oversized_frames () =
  (* A frame bigger than one UDP datagram fails on every [sendto], so
     retransmission can never deliver it: the shim must drop it at
     flush time and count it under [wire.send_errors], not retry
     silently forever. *)
  let module Big = Mk_node.Shim.Make (struct
    type msg = int

    (* A frame of [n] filler bytes; decode consumes the rest of the
       datagram and reports its length. *)
    let encode_into ~scratch:_ ~out n = Buffer.add_string out (String.make n 'x')

    let decode_at ?limit s ~pos =
      let len = Option.value limit ~default:(String.length s) in
      Ok (len - pos, len)
  end) in
  match Big.bind () with
  | Error e -> Alcotest.failf "bind: %s" e
  | Ok net ->
      let obs = Mk_obs.Obs.create ~clock:(fun () -> 0.0) () in
      Big.set_obs net obs;
      let dst = Unix.ADDR_INET (Unix.inet_addr_loopback, Big.port net) in
      Big.send net ~dst 70_000;
      (* A poll-mode send packs at once; the drop reaches the counters
         when the packer's tally folds, i.e. on the first poll. *)
      ignore (Big.poll net ~deliver:(fun ~src:_ _ -> ()) : int);
      Alcotest.(check int) "oversized frame counted" 1
        (Mk_obs.Obs.counter_value obs "wire.send_errors");
      Big.send net ~dst 100;
      let got = ref 0 in
      let deadline = Unix.gettimeofday () +. 2.0 in
      while !got = 0 && Unix.gettimeofday () < deadline do
        ignore (Big.poll net ~deliver:(fun ~src:_ len -> got := len) : int)
      done;
      Alcotest.(check int) "normal frame still flows" 100 !got;
      Alcotest.(check int) "no spurious send errors" 1
        (Mk_obs.Obs.counter_value obs "wire.send_errors");
      Big.stop net

let run_workload ~cluster driver_cfg =
  let result =
    match Driver.run driver_cfg ~cluster with
    | Ok r -> r
    | Error e -> Alcotest.failf "driver: %s" e
  in
  (match Driver.shutdown ~cluster () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "shutdown: %s" e);
  (match Checker.check result.Driver.committed with
  | Ok () -> ()
  | Error v -> Alcotest.failf "not serializable: %a" Checker.pp_violation v);
  result

(* A string frame behind a 3-byte big-endian length: just enough
   arrangement to drive a shim without the protocol codec, and able to
   express a frame larger than one datagram. *)
module Txt = Mk_node.Shim.Make (struct
  type msg = string

  let encode_into ~scratch:_ ~out s =
    let n = String.length s in
    Buffer.add_char out (Char.chr ((n lsr 16) land 0xff));
    Buffer.add_char out (Char.chr ((n lsr 8) land 0xff));
    Buffer.add_char out (Char.chr (n land 0xff));
    Buffer.add_string out s

  let decode_at ?limit d ~pos =
    let have = Option.value limit ~default:(String.length d) in
    if pos + 3 > have then
      Error (Mk_wire.Wire.Truncated { need = pos + 3; have })
    else
      let len =
        (Char.code d.[pos] lsl 16)
        lor (Char.code d.[pos + 1] lsl 8)
        lor Char.code d.[pos + 2]
      in
      if pos + 3 + len > have then
        Error (Mk_wire.Wire.Truncated { need = pos + 3 + len; have })
      else Ok (String.sub d (pos + 3) len, pos + 3 + len)
end)

let with_txt f =
  match Txt.bind () with
  | Error e -> Alcotest.failf "bind: %s" e
  | Ok net -> Fun.protect ~finally:(fun () -> Txt.stop net) (fun () -> f net)

let loopback net = Unix.ADDR_INET (Unix.inet_addr_loopback, Txt.port net)

let test_wait_flushes_then_wakes () =
  (* [wait] must send what the caller queued before it blocks: the
     peer answers only once the ping arrives, so without that flush
     the wait runs to its timeout and the pong never comes. The pong
     must end the wait promptly, and the next poll delivers it. *)
  with_txt @@ fun a ->
  with_txt @@ fun b ->
  let echo =
    Mk_live.Spawn.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. 3.0 in
        let got = ref None in
        while !got = None && Unix.gettimeofday () < deadline do
          ignore (Txt.wait b ~timeout:0.05 : bool);
          ignore (Txt.poll b ~deliver:(fun ~src m -> got := Some (src, m)) : int)
        done;
        match !got with
        | Some (src, "ping") ->
            Txt.send b ~dst:src "pong";
            ignore (Txt.poll b ~deliver:(fun ~src:_ _ -> ()) : int);
            true
        | _ -> false)
  in
  Txt.send a ~dst:(loopback b) "ping";
  let t0 = Unix.gettimeofday () in
  let woke = Txt.wait a ~timeout:2.0 in
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "peer got the ping" true (Mk_live.Spawn.join echo);
  Alcotest.(check bool) "woken by the pong" true woke;
  Alcotest.(check bool)
    (Printf.sprintf "woke promptly (%.3f s)" waited)
    true (waited < 1.0);
  let got = ref [] in
  ignore (Txt.poll a ~deliver:(fun ~src:_ m -> got := m :: !got) : int);
  Alcotest.(check (list string)) "poll delivers it" [ "pong" ] !got

let test_wait_times_out () =
  with_txt @@ fun a ->
  let t0 = Unix.gettimeofday () in
  let woke = Txt.wait a ~timeout:0.05 in
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "nothing arrived" false woke;
  Alcotest.(check bool)
    (Printf.sprintf "ran to the timeout (%.3f s)" waited)
    true
    (waited >= 0.04 && waited < 1.0);
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "negative timeout" false (Txt.wait a ~timeout:(-1.0));
  Alcotest.(check bool) "returns at once" true (Unix.gettimeofday () -. t0 < 0.5)

let test_poll_send_skips_outbox () =
  (* A poll-mode shim has one owner and no loop thread: [send] packs
     straight into its datagrams, so even a burst larger than the
     outbox's capacity all arrives, in order, after one [poll]. *)
  match Txt.bind ~outbox:4 () with
  | Error e -> Alcotest.failf "bind: %s" e
  | Ok a ->
      Fun.protect ~finally:(fun () -> Txt.stop a) @@ fun () ->
      with_txt @@ fun b ->
      let sent = List.init 10 (Printf.sprintf "m%d") in
      List.iter (Txt.send a ~dst:(loopback b)) sent;
      ignore (Txt.poll a ~deliver:(fun ~src:_ _ -> ()) : int);
      let got = ref [] in
      let deadline = Unix.gettimeofday () +. 2.0 in
      while List.length !got < 10 && Unix.gettimeofday () < deadline do
        ignore (Txt.poll b ~deliver:(fun ~src:_ m -> got := m :: !got) : int)
      done;
      Alcotest.(check (list string)) "every send delivered, in order" sent
        (List.rev !got)

(* [n] bound shims, each counting into its own registry; all stopped
   when [f] returns. *)
let with_txts n f =
  let nets =
    List.init n (fun _ ->
        match Txt.bind () with
        | Error e -> Alcotest.failf "bind: %s" e
        | Ok net ->
            let obs = Mk_obs.Obs.create ~clock:(fun () -> 0.0) () in
            Txt.set_obs net obs;
            (net, obs))
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (net, _) -> Txt.stop net) nets)
    (fun () -> f (Array.of_list nets))

(* Poll every receiver until each holds [want] frames or 2 s pass:
   each receiver's frames in arrival order. *)
let collect rxs ~want =
  let got = Array.map (fun _ -> ref []) rxs in
  let deadline = Unix.gettimeofday () +. 2.0 in
  while
    Array.exists (fun g -> List.length !g < want) got
    && Unix.gettimeofday () < deadline
  do
    Array.iteri
      (fun i (net, _) ->
        ignore
          (Txt.poll net ~deliver:(fun ~src:_ m -> got.(i) := m :: !(got.(i)))
            : int))
      rxs
  done;
  Array.map (fun g -> List.rev !g) got

let dgrams_rx rxs =
  Array.map (fun (_, obs) -> Mk_obs.Obs.counter_value obs "wire.dgrams_rx") rxs

(* Pack [rounds] frames to each receiver, interleaved across them
   (r0, r1, ..., r0, r1, ...), the shape of a Validate broadcast. *)
let pack_interleaved p rxs ~rounds =
  for k = 0 to rounds - 1 do
    Array.iteri
      (fun i (net, _) ->
        Txt.pack p ~dst:(loopback net) (Printf.sprintf "r%d.%d" i k))
      rxs
  done

let expected_frames rxs ~rounds =
  Array.mapi (fun i _ -> List.init rounds (Printf.sprintf "r%d.%d" i)) rxs

let test_packer_one_datagram_per_destination () =
  (* Frames to three peers, interleaved, must leave as one datagram per
     peer per flush — not one per frame, as a packer that coalesces
     only consecutive same-destination frames would send — and reach
     each peer in pack order. *)
  with_txts 1 @@ fun tx ->
  with_txts 3 @@ fun rxs ->
  let net, obs = tx.(0) in
  let p = Txt.packer net in
  pack_interleaved p rxs ~rounds:5;
  Txt.flush p;
  Txt.fold_tally p obs;
  let got = collect rxs ~want:5 in
  Alcotest.(check (array (list string)))
    "every frame, in pack order" (expected_frames rxs ~rounds:5) got;
  Alcotest.(check (array int)) "one datagram per peer" [| 1; 1; 1 |]
    (dgrams_rx rxs);
  Alcotest.(check int) "frames tallied" 15
    (Mk_obs.Obs.counter_value obs "wire.msgs_tx");
  Alcotest.(check int) "datagrams tallied = datagrams received" 3
    (Mk_obs.Obs.counter_value obs "wire.dgrams_tx")

let test_packer_spills_past_its_table () =
  (* More peers than the packer keeps datagrams open to: a new peer
     finding the table full ships what is open and starts over. No
     frame is lost and each peer still sees its frames in order. *)
  with_txts 1 @@ fun tx ->
  with_txts (Txt.open_slots + 2) @@ fun rxs ->
  let net, obs = tx.(0) in
  let p = Txt.packer net in
  pack_interleaved p rxs ~rounds:3;
  Txt.flush p;
  Txt.fold_tally p obs;
  let got = collect rxs ~want:3 in
  Alcotest.(check (array (list string)))
    "every frame, in pack order" (expected_frames rxs ~rounds:3) got;
  Alcotest.(check int) "datagrams tallied = datagrams received"
    (Array.fold_left ( + ) 0 (dgrams_rx rxs))
    (Mk_obs.Obs.counter_value obs "wire.dgrams_tx");
  Alcotest.(check int) "no send errors" 0
    (Mk_obs.Obs.counter_value obs "wire.send_errors")

let test_packer_oversized_frame_spares_open_datagrams () =
  (* A frame larger than one datagram is dropped and counted once; the
     datagrams already open to other peers (and to its own) still
     leave whole at the next flush. *)
  with_txts 1 @@ fun tx ->
  with_txts 2 @@ fun rxs ->
  let net, obs = tx.(0) in
  let p = Txt.packer net in
  pack_interleaved p rxs ~rounds:2;
  Txt.pack p ~dst:(loopback (fst rxs.(0))) (String.make 70_000 'x');
  Txt.flush p;
  Txt.fold_tally p obs;
  let got = collect rxs ~want:2 in
  Alcotest.(check int) "one send error" 1
    (Mk_obs.Obs.counter_value obs "wire.send_errors");
  Alcotest.(check (array (list string)))
    "open datagrams intact" (expected_frames rxs ~rounds:2) got;
  Alcotest.(check (array int)) "one datagram per peer" [| 1; 1 |]
    (dgrams_rx rxs);
  Alcotest.(check int) "datagrams tallied = datagrams received" 2
    (Mk_obs.Obs.counter_value obs "wire.dgrams_tx")

(* Raw UDP receivers: the exact datagrams a shim sent, byte for
   byte, with no decoder in between. *)
let with_raw_sockets n f =
  let socks =
    Array.init n (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        s)
  in
  Fun.protect
    ~finally:(fun () -> Array.iter Unix.close socks)
    (fun () -> f socks)

(* Every datagram that reaches [sock] until it stays quiet for
   50 ms, in arrival order. *)
let drain_raw sock =
  let buf = Bytes.create 65535 in
  let rec go acc =
    match Unix.select [ sock ] [] [] 0.05 with
    | [], _, _ -> List.rev acc
    | _ ->
        let len, _ = Unix.recvfrom sock buf 0 (Bytes.length buf) [] in
        go (Bytes.sub_string buf 0 len :: acc)
  in
  go []

(* How many frames the arrangement below has encoded. *)
let counted_encodes = ref 0

module Counted = Mk_node.Shim.Make (struct
  type msg = string

  let encode_into ~scratch:_ ~out s =
    incr counted_encodes;
    Buffer.add_char out (Char.chr (String.length s));
    Buffer.add_string out s

  let decode_at ?limit:_ _ ~pos:_ = Error (Mk_wire.Wire.Truncated { need = 0; have = 0 })
end)

let test_send_mask_matches_sends () =
  (* One broadcast through [send_mask] must put exactly the bytes on
     the wire that one [send] per named destination, in ascending
     order, would: same frames, same coalescing into each peer's open
     datagram. The broadcast is encoded once, however many peers it
     names. *)
  with_raw_sockets 3 @@ fun socks ->
  let dsts = Array.map Unix.getsockname socks in
  let capture ~broadcast =
    match Counted.bind () with
    | Error e -> Alcotest.failf "bind: %s" e
    | Ok net ->
        Fun.protect ~finally:(fun () -> Counted.stop net) @@ fun () ->
        (* An open datagram to peer 1 already, then four broadcasts,
           one of them to nobody. *)
        Counted.send net ~dst:dsts.(1) "lead";
        List.iter
          (fun (mask, msg) -> broadcast net ~mask msg)
          [ (0b111, "all"); (0b101, "ends"); (0, "none"); (0b010, "mid") ];
        ignore (Counted.poll net ~deliver:(fun ~src:_ _ -> ()) : int);
        Array.map drain_raw socks
  in
  let per_dst net ~mask msg =
    Array.iteri
      (fun r dst -> if mask land (1 lsl r) <> 0 then Counted.send net ~dst msg)
      dsts
  in
  let expected = capture ~broadcast:per_dst in
  counted_encodes := 0;
  let got =
    capture ~broadcast:(fun net ~mask msg -> Counted.send_mask net ~dsts ~mask msg)
  in
  Alcotest.(check (array (list string))) "datagrams byte-identical" expected got;
  Alcotest.(check (array (list string)))
    "one coalesced datagram per peer"
    [|
      [ "\003all\004ends" ];
      [ "\004lead\003all\003mid" ];
      [ "\003all\004ends" ];
    |]
    got;
  (* "lead" plus one encode per non-empty broadcast: the empty mask
     encodes nothing. *)
  Alcotest.(check int) "one encode per broadcast" 4 !counted_encodes

let test_send_mask_oversized_per_destination () =
  (* A frame too large for any datagram is dropped; the drop counts
     once per destination it was meant for, as [send]s would, and the
     datagrams already open still leave. *)
  with_txts 1 @@ fun tx ->
  with_txts 3 @@ fun rxs ->
  let net, obs = tx.(0) in
  let dsts = Array.map (fun (rx, _) -> loopback rx) rxs in
  Txt.send_mask net ~dsts ~mask:0b111 "before";
  Txt.send_mask net ~dsts ~mask:0b101 (String.make 70_000 'x');
  ignore (Txt.poll net ~deliver:(fun ~src:_ _ -> ()) : int);
  Alcotest.(check int) "one send error per destination" 2
    (Mk_obs.Obs.counter_value obs "wire.send_errors");
  Alcotest.(check (array (list string)))
    "open datagrams intact"
    [| [ "before" ]; [ "before" ]; [ "before" ] |]
    (collect rxs ~want:1)

let test_send_mask_threaded_uses_outbox () =
  (* A started shim's packer belongs to its loop thread, so a
     broadcast from any other thread must go through the bounded
     outbox, one entry per destination, like [send]. Hold the loop in
     its tick while two 3-peer broadcasts meet a 4-entry outbox: four
     frames fit and two drop. Packing into the loop's datagrams
     directly would deliver all six (and race the loop thread). *)
  match Txt.bind ~outbox:4 () with
  | Error e -> Alcotest.failf "bind: %s" e
  | Ok a ->
      with_txts 3 @@ fun rxs ->
      let dsts = Array.map (fun (rx, _) -> loopback rx) rxs in
      let entered = ref false and release = ref false in
      let tick ~now_us:_ =
        entered := true;
        while not !release do
          Thread.delay 0.001
        done
      in
      Txt.start a { Txt.deliver = (fun ~src:_ _ -> ()); tick };
      Fun.protect ~finally:(fun () -> release := true; Txt.stop a) @@ fun () ->
      let deadline = Unix.gettimeofday () +. 2.0 in
      while (not !entered) && Unix.gettimeofday () < deadline do
        Thread.delay 0.001
      done;
      Alcotest.(check bool) "loop held in its tick" true !entered;
      Txt.send_mask a ~dsts ~mask:0b111 "first";
      Txt.send_mask a ~dsts ~mask:0b111 "second";
      release := true;
      let got = collect rxs ~want:2 in
      Alcotest.(check (array (list string)))
        "the outbox's four entries, in order"
        [| [ "first"; "second" ]; [ "first" ]; [ "first" ] |]
        got

let test_core_send_tallies ~cores () =
  (* Cores answer on the socket through their own packers; what they
     send is counted per core and folded in at [wait]. Core 0's packer
     also carries the loop thread's [Get_reply]s. Every frame the
     client received was sent by some node, so the nodes' summed tx
     (no detector: replies only) bounds the client's rx — a lost core
     tally or a racy shared increment shows up as a shortfall. *)
  let keys = 64 in
  let bound, cluster = bind_cluster 3 in
  let nodes =
    launch_cluster ~cores ~keys
      ~configure:(fun _ c -> { c with Node.detector = None })
      bound cluster
  in
  let result =
    run_workload ~cluster
      {
        Driver.default_config with
        Driver.coordinators = 2;
        clients = 6;
        keys;
        txns_per_client = 20;
        seed = 17;
      }
  in
  let stats = Array.map Node.wait nodes in
  let node_tx =
    Array.fold_left (fun acc (s : Node.stats) -> acc + s.Node.wire_msgs_tx) 0 stats
  in
  Alcotest.(check int) "every transaction resolved" 120
    (result.Driver.committed_count + result.Driver.aborted);
  Alcotest.(check bool)
    (Printf.sprintf "nodes sent %d >= client received %d" node_tx
       result.Driver.wire_msgs_rx)
    true
    (result.Driver.wire_msgs_rx > 0 && node_tx >= result.Driver.wire_msgs_rx);
  Array.iter
    (fun (s : Node.stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "node%d sent" s.Node.me)
        true (s.Node.wire_msgs_tx > 0))
    stats

(* --- durable cluster: log-proportional checkpoints (DESIGN.md §12) --- *)

let with_data_dirs n f =
  let dirs =
    Array.init n (fun i ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "mk-test-node-%d-%d" (Unix.getpid ()) i))
  in
  let remove dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Array.iter remove dirs;
  Fun.protect ~finally:(fun () -> Array.iter remove dirs) (fun () -> f dirs)

let test_durable_checkpoints_log_proportional () =
  (* Each core snapshots only once its log suffix outgrows the last
     image. After a run of [txns] transactions: no core's suffix
     exceeds its image plus one record, no core wrote more than
     ceil(log2 txns) + 2 images, and the files alone restore every
     committed record at its timestamp. *)
  let keys = 64 and cores = 2 in
  let driver_cfg =
    {
      Driver.default_config with
      Driver.coordinators = 2;
      clients = 6;
      keys;
      txns_per_client = 40;
      seed = 5;
    }
  in
  let txns = driver_cfg.clients * driver_cfg.txns_per_client in
  with_data_dirs 3 @@ fun dirs ->
  let bound, cluster = bind_cluster 3 in
  let nodes =
    launch_cluster ~keys
      ~configure:(fun i c ->
        { c with Node.cores; data_dir = Some dirs.(i); fsync = Wal.Every 8 })
      bound cluster
  in
  let result = run_workload ~cluster driver_cfg in
  let stats = Array.map Node.wait nodes in
  Alcotest.(check int) "every transaction resolved" txns
    (result.Driver.committed_count + result.Driver.aborted);
  let max_snaps = int_of_float (Float.ceil (Float.log2 (float_of_int txns))) + 2 in
  Array.iteri
    (fun i (st : Node.stats) ->
      let dir = dirs.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "node%d logged" i)
        true (st.Node.wal_appends > 0);
      List.iteri
        (fun c n ->
          if n < 1 || n > max_snaps then
            Alcotest.failf "node%d core%d wrote %d snapshots (bound %d)" i c n
              max_snaps)
        st.Node.core_snapshots;
      let sources =
        List.init cores (fun c ->
            let log = Wal.read_file (Node.wal_path dir c) in
            let snap, img =
              match Snapshot.read ~path:(Node.snap_path dir c) with
              | Some s -> (
                  match Walcodec.read_snapshot s with
                  | Some img -> (s, img)
                  | None -> Alcotest.failf "node%d core%d: corrupt snapshot" i c)
              | None -> Alcotest.failf "node%d core%d: no snapshot" i c
            in
            let suffix = Walcodec.read_records ~from:img.wal_cut log in
            let frame =
              List.fold_left
                (fun acc r -> max acc (String.length (Walcodec.encode_record r)))
                0 suffix.records
            in
            let snap_bytes = String.length snap in
            if String.length log - img.wal_cut > snap_bytes + frame then
              Alcotest.failf
                "node%d core%d: %d log bytes past the cut, snapshot %d + record %d"
                i c
                (String.length log - img.wal_cut)
                snap_bytes frame;
            { Recover.snap = Some snap; log })
      in
      let parsed = Recover.parse ~cores sources in
      Alcotest.(check int) (Printf.sprintf "node%d clean files" i) 0
        parsed.decode_errors;
      let final = Replica.record_views (Node.replica nodes.(i)) in
      List.iter
        (fun (core, (v : Replica.record_view)) ->
          if v.status = Txn.Committed then
            let restored =
              List.exists
                (fun (c, (r : Replica.record_view)) ->
                  c = core
                  && Tid.equal r.txn.tid v.txn.tid
                  && r.status = Txn.Committed
                  && Timestamp.compare r.ts v.ts = 0)
                parsed.records
            in
            if not restored then
              Alcotest.failf "node%d: committed record lost by recovery" i)
        final)
    stats

(* --- an epoch change abandoned at its deadline --- *)

let test_abandoned_epoch_change_resumes ~cores () =
  (* Node 0 holds a non-final record (a validation whose write-back
     never comes) and is drawn into an epoch change whose initiator
     never answers, so the change hits its deadline without a merge.
     The node must resume at the new epoch with its own records —
     non-final one included — and serve the workload that follows. No
     detector: nobody else starts a change that could rescue it. *)
  let keys = 16 in
  let bound, cluster = bind_cluster 3 in
  let nodes =
    launch_cluster ~cores ~keys
      ~configure:(fun _ c -> { c with Node.detector = None; rto_us = 5_000.0 })
      bound cluster
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let dst =
    Unix.ADDR_INET (Unix.inet_addr_loopback, cluster.(0).Cluster_config.port)
  in
  let send msg =
    let s = Codec.encode msg in
    ignore (Unix.sendto_substring sock s 0 (String.length s) [] dst : int)
  in
  let stray =
    Txn.make
      ~tid:(Tid.make ~seq:1 ~client_id:999)
      ~read_set:[]
      ~write_set:[ ({ key = keys + 1; value = 7 } : Txn.write_entry) ]
  in
  send
    (Codec.Validate
       {
         coord = 0;
         slot = 0;
         seq = 1;
         txn = stray;
         ts = Timestamp.make ~time:1.0 ~client_id:999;
       });
  Unix.sleepf 0.05;
  (* Node 1 has no change in flight: it drops node 0's report, so no
     install ever comes. The deadline is 40 x rto = 200 ms. *)
  send (Codec.Epoch_change { initiator = 1; epoch = 1 });
  Unix.close sock;
  let replica = Node.replica nodes.(0) in
  let deadline = Unix.gettimeofday () +. 3.0 in
  while Replica.epoch replica < 1 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Alcotest.(check int) "entered the epoch" 1 (Replica.epoch replica);
  while (not (Replica.is_available replica)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "resumed after the deadline" true
    (Replica.is_available replica);
  let result =
    run_workload ~cluster
      {
        Driver.default_config with
        Driver.coordinators = 1;
        clients = 3;
        keys;
        txns_per_client = 10;
        seed = 3;
      }
  in
  let stats = Array.map Node.wait nodes in
  Alcotest.(check int) "workload resolved" 30
    (result.Driver.committed_count + result.Driver.aborted);
  Alcotest.(check bool) "node0 validated the workload" true
    (stats.(0).Node.validations_ok > 1);
  Alcotest.(check bool) "non-final record kept" true
    (List.exists
       (fun (_, (v : Replica.record_view)) ->
         Tid.equal v.txn.tid stray.tid && v.status = Txn.Validated_ok)
       (Replica.record_views replica))

(* --- epoch changes back to back on a one-core node --- *)

let test_superseded_epoch_changes () =
  (* At one core, the loop thread steps core 0 itself: every freeze and
     thaw of an epoch change must be stepped inline, never pushed into
     an inbox only the loop thread drains (a full one would spin the
     loop forever). One datagram carries three [Epoch_change]s, each
     superseding the last, so a single receive burst freezes core 0
     three times. The node under test has no core inbox: [core_inbox =
     2] only arms the mutation that routes core 0's control through a
     self-drained inbox of that many slots, which three freezes
     overflow. The detector is on, so the peers may start changes of
     their own on top. Afterwards the node must still answer a [Get]
     and serve a workload. *)
  let keys = 16 in
  let bound, cluster = bind_cluster 3 in
  let nodes =
    launch_cluster ~heartbeat_ms:10.0 ~cores:1 ~keys
      ~configure:(fun _ c -> { c with Node.core_inbox = 2 })
      bound cluster
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  let dst =
    Unix.ADDR_INET (Unix.inet_addr_loopback, cluster.(0).Cluster_config.port)
  in
  let send msg =
    let s = Codec.encode msg in
    ignore (Unix.sendto_substring sock s 0 (String.length s) [] dst : int)
  in
  let changes =
    String.concat ""
      (List.map
         (fun epoch -> Codec.encode (Codec.Epoch_change { initiator = 1; epoch }))
         [ 1; 2; 3 ])
  in
  ignore (Unix.sendto_substring sock changes 0 (String.length changes) [] dst : int);
  let replica = Node.replica nodes.(0) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (Replica.epoch replica < 3 || not (Replica.is_available replica))
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "reached epoch 3" true (Replica.epoch replica >= 3);
  Alcotest.(check bool) "serving again" true (Replica.is_available replica);
  send (Codec.Get { coord = 0; slot = 0; seq = 1; key = 3 });
  let buf = Bytes.create 65535 in
  let answered =
    match Unix.select [ sock ] [] [] 2.0 with
    | [], _, _ -> false
    | _ -> (
        let len, _ = Unix.recvfrom sock buf 0 (Bytes.length buf) [] in
        match Codec.decode_shard_at (Bytes.sub_string buf 0 len) ~pos:0 with
        | Ok ((_, Codec.Get_reply { key = 3; replica = 0; _ }), _) -> true
        | Ok _ | Error _ -> false)
  in
  Alcotest.(check bool) "answers a Get" true answered;
  let result =
    run_workload ~cluster
      {
        Driver.default_config with
        Driver.coordinators = 1;
        clients = 3;
        keys;
        txns_per_client = 10;
        seed = 5;
      }
  in
  let stats = Array.map Node.wait nodes in
  Alcotest.(check int) "workload resolved" 30
    (result.Driver.committed_count + result.Driver.aborted);
  Alcotest.(check bool) "node0 validated the workload" true
    (stats.(0).Node.validations_ok > 0)

(* --- a raise in core 0's handler fails the node --- *)

exception Injected

let test_core0_raise_fails_wait ~cores () =
  (* Core 0 runs on the shim's loop thread, inside [deliver], whose
     catch-all counts a raise as a decode error. A raise in core 0's
     handler (here from the durable hook, which fires inside
     [Replica.handle_commit]) must still fail [Node.wait], as a raise
     ending a spawned core's domain fails it through [Spawn.join]. *)
  let keys = 16 in
  let bound, cluster = bind_cluster 3 in
  let nodes =
    launch_cluster ~cores ~keys
      ~configure:(fun _ c -> { c with Node.detector = None })
      ~prepare:(fun i node ->
        if i = 0 then
          Replica.set_durable_hook (Node.replica node) (function
            | Replica.Finalized _ -> raise Injected
            | Replica.Installed _ -> ()))
      bound cluster
  in
  (* A transaction steered to core 0 at any core count. *)
  let rec core0_tid client_id =
    let tid = Tid.make ~seq:1 ~client_id in
    if Tid.hash tid mod cores = 0 then tid else core0_tid (client_id + 1)
  in
  let tid = core0_tid 900 in
  let txn =
    Txn.make ~tid ~read_set:[]
      ~write_set:[ ({ key = 1; value = 7 } : Txn.write_entry) ]
  in
  let ts = Timestamp.make ~time:1.0 ~client_id:tid.Tid.client_id in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let dst =
    Unix.ADDR_INET (Unix.inet_addr_loopback, cluster.(0).Cluster_config.port)
  in
  let send msg =
    let s = Codec.encode msg in
    ignore (Unix.sendto_substring sock s 0 (String.length s) [] dst : int)
  in
  send (Codec.Validate { coord = 0; slot = 0; seq = 1; txn; ts });
  send (Codec.Write_back { txn; ts; commit = true });
  Unix.close sock;
  Unix.sleepf 0.1;
  Array.iter Node.shutdown nodes;
  (match Node.wait nodes.(0) with
  | _ -> Alcotest.fail "node0's core 0 raised, but wait returned"
  | exception Injected -> ());
  Array.iteri
    (fun i node ->
      if i > 0 then
        Alcotest.(check int)
          (Printf.sprintf "node%d clean wire" i)
          0 (Node.wait node).Node.wire_decode_errors)
    nodes

(* --- a stuck record finalized by a backup coordinator (§5.3.2) --- *)

let test_stuck_record_view_change ~cores () =
  (* A raw-frame "coordinator" validates one transaction on every node
     and then vanishes. The record sits non-final, and only the cores'
     record feed tells each node's detector about it: after the stuck
     timeout some detector must drive a view change over the wire and
     its write-back must finalize the record on a majority. *)
  let keys = 16 in
  let bound, cluster = bind_cluster 3 in
  let nodes = launch_cluster ~heartbeat_ms:10.0 ~cores ~keys bound cluster in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let stray =
    Txn.make
      ~tid:(Tid.make ~seq:1 ~client_id:777)
      ~read_set:[]
      ~write_set:[ ({ key = 3; value = 9 } : Txn.write_entry) ]
  in
  let validate =
    Codec.encode
      (Codec.Validate
         {
           coord = 0;
           slot = 0;
           seq = 1;
           txn = stray;
           ts = Timestamp.make ~time:1.0 ~client_id:777;
         })
  in
  Array.iter
    (fun (e : Cluster_config.node) ->
      let dst = Unix.ADDR_INET (Unix.inet_addr_loopback, e.Cluster_config.port) in
      ignore
        (Unix.sendto_substring sock validate 0 (String.length validate) [] dst
          : int))
    cluster;
  Unix.close sock;
  let view_changes () =
    Array.fold_left
      (fun acc node ->
        acc + Mk_obs.Obs.counter_value (Node.obs node) "recovery.view_changes")
      0 nodes
  in
  (* Stuck after 8 heartbeats (80 ms), scanned every 20 ms. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while view_changes () = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  (* Let the finishing node's write-back land everywhere. *)
  Unix.sleepf 0.1;
  Array.iter Node.shutdown nodes;
  let stats = Array.map Node.wait nodes in
  Alcotest.(check bool) "a view change finished" true
    (Array.exists (fun (s : Node.stats) -> s.Node.view_changes >= 1) stats);
  let final =
    Array.fold_left
      (fun acc node ->
        if
          List.exists
            (fun (_, (v : Replica.record_view)) ->
              Tid.equal v.txn.tid stray.tid && Txn.is_final v.status)
            (Replica.record_views (Node.replica node))
        then acc + 1
        else acc)
      0 nodes
  in
  Alcotest.(check bool)
    (Printf.sprintf "record final on a majority (%d of 3)" final)
    true (final >= 2)

(* --- two shard groups on UDP loopback (DESIGN.md §13) --- *)

let test_sharded_cluster_serializable () =
  (* Two independent 3-node fleets, one per shard group, driven by the
     cross-shard 2PC client driver. The merged global history must be
     serializable, cross-shard transactions must actually happen, and
     no node may see a frame stamped for the other group (distinct
     sockets — the stamp is belt-and-braces here, load-bearing when
     ports get crossed). *)
  let keys = 64 and shards = 2 in
  let router = Mk_shard.Router.create ~shards ~keys () in
  let fleets =
    Array.init shards (fun s ->
        let bound, cluster = bind_cluster 3 in
        let nodes =
          launch_cluster ~shard:s
            ~keys:(Mk_shard.Router.local_keys router ~shard:s)
            bound cluster
        in
        (cluster, nodes))
  in
  let clusters = Array.map fst fleets in
  let driver_cfg =
    {
      Driver.default_config with
      Driver.coordinators = 2;
      clients = 6;
      keys;
      workload = Driver.Rmw_pair;
      cross = 0.5;
      txns_per_client = 12;
      seed = 11;
    }
  in
  let result =
    match Driver.run_groups driver_cfg ~clusters with
    | Ok r -> r
    | Error e -> Alcotest.failf "driver: %s" e
  in
  Array.iteri
    (fun s cluster ->
      match Driver.shutdown ~shard:s ~cluster () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "shutdown shard%d: %s" s e)
    clusters;
  let stats = Array.map (fun (_, nodes) -> Array.map Node.wait nodes) fleets in
  Alcotest.(check int) "72 transactions resolved" 72
    (result.Driver.committed_count + result.Driver.aborted);
  Alcotest.(check bool) "some commits" true
    (result.Driver.committed_count > 0);
  Alcotest.(check bool) "some cross-shard commits" true
    (result.Driver.cross_shard > 0);
  Alcotest.(check int) "driver saw no shard drops" 0
    result.Driver.wire_shard_drops;
  (match Checker.check result.Driver.committed with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "merged history not serializable: %a" Checker.pp_violation
        v);
  (* Per-shard sub-histories are serializable on their own, too. *)
  List.iter
    (fun (s, sub) ->
      match Checker.check sub with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "shard %d sub-history not serializable: %a" s
            Checker.pp_violation v)
    result.Driver.sub_histories;
  Array.iteri
    (fun s fleet_stats ->
      Array.iter
        (fun (st : Node.stats) ->
          Alcotest.(check int)
            (Printf.sprintf "shard%d/node%d clean wire" s st.Node.me)
            0 st.Node.wire_decode_errors;
          Alcotest.(check int)
            (Printf.sprintf "shard%d/node%d no shard drops" s st.Node.me)
            0 st.Node.wire_shard_drops;
          Alcotest.(check bool)
            (Printf.sprintf "shard%d/node%d served traffic" s st.Node.me)
            true
            (st.Node.wire_msgs_rx > 0 && st.Node.wire_msgs_tx > 0))
        fleet_stats)
    stats

let test_shard_stamp_isolates_groups () =
  (* A node in group 1 receiving well-formed frames stamped for group
     0 must count them as shard drops and act on none of them — a
     heartbeat from the wrong group must not register liveness, and a
     Get must not be answered. *)
  let bound, cluster = bind_cluster 3 in
  let nodes = launch_cluster ~shard:1 ~keys:16 bound cluster in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let dst =
    Unix.ADDR_INET (Unix.inet_addr_loopback, cluster.(0).Cluster_config.port)
  in
  let send ~shard msg =
    let s = Codec.encode_shard ~shard msg in
    ignore (Unix.sendto_substring sock s 0 (String.length s) [] dst : int)
  in
  send ~shard:0 (Codec.Heartbeat { from_ = 1; paused = false });
  send ~shard:0 (Codec.Get { coord = 0; slot = 0; seq = 1; key = 3 });
  send ~shard:5 (Codec.Heartbeat { from_ = 2; paused = false });
  Unix.close sock;
  Unix.sleepf 0.1;
  Array.iter Node.shutdown nodes;
  let stats = Array.map Node.wait nodes in
  Alcotest.(check bool) "mismatched stamps counted" true
    (stats.(0).Node.wire_shard_drops >= 3);
  Alcotest.(check int) "not decode errors" 0 stats.(0).Node.wire_decode_errors

(* --- multi-key reads: one Reads frame, one Read_replies --- *)

(* A raw client socket speaking the codec, for frame-level exchanges
   with a node. *)
let with_raw_client f =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Fun.protect ~finally:(fun () -> Unix.close sock) (fun () -> f sock)

let send_to sock cluster i ?(shard = 0) msg =
  let dst =
    Unix.ADDR_INET (Unix.inet_addr_loopback, cluster.(i).Cluster_config.port)
  in
  let s = Codec.encode_shard ~shard msg in
  ignore (Unix.sendto_substring sock s 0 (String.length s) [] dst : int)

(* Every frame that arrives until [want] have or [timeout] seconds
   pass, in arrival order. *)
let receive sock ~want ~timeout =
  let buf = Bytes.create 65536 in
  let got = ref [] in
  let deadline = Unix.gettimeofday () +. timeout in
  while
    List.length !got < want && Unix.gettimeofday () < deadline
  do
    match
      Unix.select [ sock ] [] [] (Float.max 0.0 (deadline -. Unix.gettimeofday ()))
    with
    | [], _, _ -> ()
    | _ ->
        let len, _ = Unix.recvfrom sock buf 0 (Bytes.length buf) [] in
        let d = Bytes.sub_string buf 0 len in
        let rec walk pos =
          if pos < len then
            match Codec.decode_shard_at d ~pos with
            | Ok ((_, m), next) ->
                got := m :: !got;
                walk next
            | Error e -> Alcotest.failf "reply decode: %s" (Wire.error_to_string e)
        in
        walk 0
  done;
  List.rev !got

let test_reads_match_gets ~cores () =
  (* A 5-key Reads must answer exactly what five single Gets answer,
     in key order, in one Read_replies. Write-backs give every key its
     own value and wts first. *)
  let keys = 16 in
  let bound, cluster = bind_cluster 3 in
  let nodes = launch_cluster ~cores ~keys bound cluster in
  with_raw_client (fun sock ->
      for key = 0 to keys - 1 do
        let txn =
          Txn.make
            ~tid:(Tid.make ~seq:(key + 1) ~client_id:1)
            ~read_set:[]
            ~write_set:[ { Txn.key; value = 100 + key } ]
        in
        let ts = Timestamp.make ~time:(float_of_int (key + 1)) ~client_id:1 in
        send_to sock cluster 0 (Codec.Write_back { txn; ts; commit = true })
      done);
  let read_keys = [| 9; 2; 14; 3; 7 |] in
  let replies =
    with_raw_client @@ fun sock ->
    (* Wait until the write-backs have landed (a core may take them
       off its inbox), so both kinds of read see the same versions. *)
    let settled () =
      Array.iter
        (fun key ->
          send_to sock cluster 0 (Codec.Get { coord = 0; slot = 0; seq = 0; key }))
        read_keys;
      let got = receive sock ~want:5 ~timeout:0.5 in
      List.length got = 5
      && List.for_all
           (function
             | Codec.Get_reply { key; value; _ } -> value = 100 + key
             | _ -> false)
           got
    in
    let deadline = Unix.gettimeofday () +. 3.0 in
    while (not (settled ())) && Unix.gettimeofday () < deadline do
      ()
    done;
    send_to sock cluster 0
      (Codec.Reads { coord = 0; slot = 4; seq = 77; keys = read_keys });
    Array.iteri
      (fun i key ->
        send_to sock cluster 0 (Codec.Get { coord = 0; slot = 0; seq = i; key }))
      read_keys;
    receive sock ~want:6 ~timeout:2.0
  in
  Array.iter Node.shutdown nodes;
  let stats = Array.map Node.wait nodes in
  let batch =
    List.filter_map
      (function
        | Codec.Read_replies { slot; seq; replica; values; wts } ->
            Some (slot, seq, replica, values, wts)
        | _ -> None)
      replies
  in
  let singles = Array.make (Array.length read_keys) None in
  List.iter
    (function
      | Codec.Get_reply { seq; key; value; wts; _ } ->
          Alcotest.(check int) "get answers its key" read_keys.(seq) key;
          singles.(seq) <- Some (value, wts)
      | _ -> ())
    replies;
  (match batch with
  | [ (slot, seq, replica, values, wts) ] ->
      Alcotest.(check (triple int int int)) "routing echoed" (4, 77, 0)
        (slot, seq, replica);
      Alcotest.(check int) "one value per key" 5 (Array.length values);
      Alcotest.(check int) "one wts per key" 5 (Array.length wts);
      Array.iteri
        (fun i single ->
          match single with
          | None -> Alcotest.failf "no Get_reply for key %d" read_keys.(i)
          | Some (value, w) ->
              Alcotest.(check int)
                (Printf.sprintf "value of key %d" read_keys.(i))
                value values.(i);
              Alcotest.(check bool)
                (Printf.sprintf "wts of key %d" read_keys.(i))
                true
                (Timestamp.equal w wts.(i)))
        singles;
      Alcotest.(check (array int)) "the written values" [| 109; 102; 114; 103; 107 |]
        values
  | l -> Alcotest.failf "%d Read_replies for one Reads" (List.length l));
  Alcotest.(check int) "clean wire" 0 stats.(0).Node.wire_decode_errors

let test_write_back_finalizes_every_core ~cores () =
  (* Records validated on every core are finalized by their
     write-backs, however the frame reaches its core: core 0 takes a
     write-back for a record it holds straight off the receive cursor
     (by tid, no transaction built), and at [cores >= 2] core 1's
     cross its mailbox as a built message. Every replica must end with
     each record committed in its own core's partition, and the
     written values installed. *)
  let keys = 16 in
  let bound, cluster = bind_cluster 3 in
  let nodes = launch_cluster ~cores ~keys bound cluster in
  let n_txns = 12 in
  let txns =
    List.init n_txns (fun i ->
        let txn =
          Txn.make
            ~tid:(Tid.make ~seq:(i + 1) ~client_id:5)
            ~read_set:[]
            ~write_set:[ { Txn.key = i; value = 300 + i } ]
        in
        (txn, Timestamp.make ~time:(float_of_int (i + 1)) ~client_id:5))
  in
  let core_of (txn : Txn.t) = Tid.hash txn.tid mod cores in
  for core = 0 to cores - 1 do
    if not (List.exists (fun (txn, _) -> core_of txn = core) txns) then
      Alcotest.failf "no transaction steered to core %d" core
  done;
  let written () =
    with_raw_client @@ fun sock ->
    List.iteri
      (fun key _ ->
        for r = 0 to 2 do
          send_to sock cluster r (Codec.Get { coord = 0; slot = r; seq = key; key })
        done)
      txns;
    let got = receive sock ~want:(3 * n_txns) ~timeout:0.5 in
    List.length got = 3 * n_txns
    && List.for_all
         (function Codec.Get_reply { key; value; _ } -> value = 300 + key | _ -> false)
         got
  in
  with_raw_client (fun sock ->
      List.iteri
        (fun i (txn, ts) ->
          for r = 0 to 2 do
            send_to sock cluster r (Codec.Validate { coord = 0; slot = i; seq = 0; txn; ts })
          done)
        txns;
      let validated = receive sock ~want:(3 * n_txns) ~timeout:2.0 in
      Alcotest.(check int) "every replica validated every transaction" (3 * n_txns)
        (List.length
           (List.filter
              (function
                | Codec.Validated { status = Txn.Validated_ok; _ } -> true | _ -> false)
              validated));
      List.iter
        (fun (txn, ts) ->
          for r = 0 to 2 do
            send_to sock cluster r (Codec.Write_back { txn; ts; commit = true })
          done)
        txns);
  let deadline = Unix.gettimeofday () +. 3.0 in
  while (not (written ())) && Unix.gettimeofday () < deadline do
    ()
  done;
  Array.iter Node.shutdown nodes;
  let stats = Array.map Node.wait nodes in
  Array.iteri
    (fun r node ->
      Alcotest.(check int) (Printf.sprintf "node%d committed" r) n_txns
        stats.(r).Node.committed;
      let tr = Replica.trecord (Node.replica node) in
      List.iter
        (fun ((txn : Txn.t), _) ->
          match Mk_storage.Trecord.find tr ~core:(core_of txn) txn.tid with
          | Some e ->
              Alcotest.(check bool)
                (Printf.sprintf "node%d: %s committed on core %d" r
                   (Tid.to_string txn.tid) (core_of txn))
                true (e.status = Txn.Committed)
          | None ->
              Alcotest.failf "node%d: %s missing from core %d" r (Tid.to_string txn.tid)
                (core_of txn))
        txns;
      Alcotest.(check int) (Printf.sprintf "node%d clean wire" r) 0
        stats.(r).Node.wire_decode_errors)
    nodes

let test_reads_paused_and_misstamped () =
  (* A paused replica answers no Reads at all (the client rotates on
     the silence), and a Reads stamped for another shard is a counted
     shard drop, never answered. Node 1 is paused before it launches;
     without a detector nothing unpauses it. *)
  let bound, cluster = bind_cluster 3 in
  let nodes =
    launch_cluster ~keys:16
      ~configure:(fun _ c -> { c with Node.detector = None })
      ~prepare:(fun i node ->
        if i = 1 then Replica.begin_recovery (Node.replica node))
      bound cluster
  in
  let reads seq = Codec.Reads { coord = 0; slot = 0; seq; keys = [| 1; 2; 3 |] } in
  let got =
    with_raw_client @@ fun sock ->
    send_to sock cluster 1 (reads 1);
    send_to sock cluster 0 ~shard:1 (reads 2);
    send_to sock cluster 0 (reads 3);
    receive sock ~want:2 ~timeout:0.5
  in
  Array.iter Node.shutdown nodes;
  let stats = Array.map Node.wait nodes in
  let answered =
    List.filter_map
      (function Codec.Read_replies { seq; replica; _ } -> Some (seq, replica) | _ -> None)
      got
  in
  Alcotest.(check (list (pair int int))) "only the live, well-stamped Reads answered"
    [ (3, 0) ] answered;
  Alcotest.(check bool) "misstamped Reads counted" true
    (stats.(0).Node.wire_shard_drops >= 1);
  Alcotest.(check int) "not decode errors" 0 stats.(0).Node.wire_decode_errors

(* --- the client's read table, on a fake transport --- *)

let fake_table () =
  let sent = ref [] in
  let send ~shard ~replica ~rid keys = sent := (shard, replica, rid, keys) :: !sent in
  let t = Read_table.create ~n:3 ~rto:100.0 ~rto_cap:800.0 ~send in
  let take () =
    let l = List.rev !sent in
    sent := [];
    l
  in
  (t, take)

let ts_of v = Timestamp.make ~time:(float_of_int v) ~client_id:0

(* The one frame [take] holds: (shard, replica, batch id, keys). *)
let one_frame take =
  match take () with
  | [ frame ] -> frame
  | l -> Alcotest.failf "expected one frame, got %d" (List.length l)

let test_read_table_rotates_whole_batch () =
  let t, take = fake_table () in
  let answers = ref [] in
  let keys = [| 5; 6; 7 |] in
  Read_table.issue t ~now:0.0 ~shard:1 ~target:4 ~keys (fun i value _ ->
      answers := (i, value) :: !answers);
  let frame = Alcotest.(pair int (pair int (array int))) in
  let shard, replica, rid, sent = one_frame take in
  Alcotest.check frame "first frame to replica 4 mod 3" (1, (1, keys))
    (shard, (replica, sent));
  Alcotest.(check int) "one batch in flight" 1 (Read_table.in_flight t);
  Alcotest.(check int) "nothing due yet" 0 (Read_table.retry_due t ~now:99.0);
  Alcotest.(check int) "silence: the batch rotates" 1
    (Read_table.retry_due t ~now:100.0);
  let shard, replica, rid', sent = one_frame take in
  Alcotest.check frame "the whole batch, to replica 2" (1, (2, keys))
    (shard, (replica, sent));
  Alcotest.(check int) "same batch id" rid rid';
  Alcotest.(check (float 0.0)) "timeout doubled" 300.0 (Read_table.next_due t);
  Alcotest.(check int) "rotates again" 1 (Read_table.retry_due t ~now:300.0);
  let shard, replica, _, sent = one_frame take in
  Alcotest.check frame "wraps to replica 0" (1, (0, keys)) (shard, (replica, sent));
  Alcotest.(check int) "still one batch" 1 (Read_table.in_flight t);
  Alcotest.(check bool) "reply taken" true
    (Read_table.reply t ~rid ~shard:1 ~values:[| 50; 60; 70 |]
       ~wts:(Array.map ts_of [| 1; 2; 3 |])
    = Read_table.Fed);
  Alcotest.(check (list (pair int int))) "every key answered once"
    [ (0, 50); (1, 60); (2, 70) ]
    (List.sort compare !answers);
  Alcotest.(check int) "table empty" 0 (Read_table.in_flight t);
  Alcotest.(check int) "nothing left to retry" 0 (Read_table.retry_due t ~now:1e9);
  Alcotest.(check int) "no resend" 0 (List.length (take ()))

let test_read_table_splits_over_cap () =
  let t, take = fake_table () in
  let cap = Read_table.max_keys in
  let keys = Array.init ((2 * cap) + 3) (fun i -> 100 + i) in
  let answers = Array.make (Array.length keys) [] in
  Read_table.issue t ~now:0.0 ~shard:0 ~target:0 ~keys (fun i value _ ->
      answers.(i) <- value :: answers.(i));
  let frames = take () in
  Alcotest.(check (list int)) "split cap + cap + 3" [ cap; cap; 3 ]
    (List.map (fun (_, _, _, k) -> Array.length k) frames);
  Alcotest.(check (array int)) "every key asked once, in order" keys
    (Array.concat (List.map (fun (_, _, _, k) -> k) frames));
  Alcotest.(check int) "three entries" 3 (Read_table.in_flight t);
  (* Answer out of order, each with its keys' values. *)
  List.iter
    (fun (_, _, rid, k) ->
      match
        Read_table.reply t ~rid ~shard:0 ~values:(Array.map (fun x -> x * 10) k)
          ~wts:(Array.map ts_of k)
      with
      | Read_table.Fed -> ()
      | _ -> Alcotest.fail "split reply not taken")
    (List.rev frames);
  Alcotest.(check (array (list int))) "every key answered once"
    (Array.map (fun k -> [ k * 10 ]) keys)
    answers;
  Alcotest.(check int) "table empty" 0 (Read_table.in_flight t);
  (* The cap keeps the largest reply inside one datagram. *)
  let n = cap in
  let reply =
    Codec.encode
      (Codec.Read_replies
         {
           slot = max_int;
           seq = max_int;
           replica = 0;
           values = Array.make n max_int;
           wts = Array.make n (ts_of 1);
         })
  in
  Alcotest.(check bool)
    (Printf.sprintf "a %d-key reply (%d B) fits a datagram" n (String.length reply))
    true
    (String.length reply <= 65_507)

let test_read_table_drops_bad_replies () =
  let t, take = fake_table () in
  let answered = ref 0 in
  Read_table.issue t ~now:0.0 ~shard:2 ~target:0 ~keys:[| 1; 2; 3 |]
    (fun _ _ _ -> incr answered);
  let _, _, rid, _ = one_frame take in
  let reply ?(shard = 2) ?(rid = rid) values wts =
    Read_table.reply t ~rid ~shard ~values ~wts:(Array.map ts_of wts)
  in
  let check what expected got =
    Alcotest.(check bool) what true (expected = got)
  in
  check "two values for three keys" Read_table.Malformed (reply [| 1; 2 |] [| 1; 2 |]);
  check "three values, two wts" Read_table.Malformed (reply [| 1; 2; 3 |] [| 1; 2 |]);
  check "four values" Read_table.Malformed (reply [| 1; 2; 3; 4 |] [| 1; 2; 3; 4 |]);
  check "another group's stamp" Read_table.Misrouted
    (reply ~shard:1 [| 1; 2; 3 |] [| 1; 2; 3 |]);
  check "unknown id" Read_table.Stale (reply ~rid:(rid + 1) [| 1; 2; 3 |] [| 1; 2; 3 |]);
  Alcotest.(check int) "no key answered by a dropped reply" 0 !answered;
  Alcotest.(check int) "batch still waiting" 1 (Read_table.in_flight t);
  check "the right reply" Read_table.Fed (reply [| 1; 2; 3 |] [| 1; 2; 3 |]);
  Alcotest.(check int) "all three answered" 3 !answered;
  check "a duplicate is stale" Read_table.Stale (reply [| 1; 2; 3 |] [| 1; 2; 3 |]);
  Alcotest.(check int) "answered once" 3 !answered

let test_cluster_detects_silent_node ~cores () =
  (* No workload: stop one node's socket and heartbeats, wait past the
     detector timeout, and check both survivors latched the suspicion
     at shutdown. [shutdown] must take the wire path whenever the node
     runs — even with no core domain spawned — or it skips the
     suspicion latch. *)
  let bound, cluster = bind_cluster 3 in
  let nodes = launch_cluster ~heartbeat_ms:10.0 ~cores ~keys:16 bound cluster in
  (* Let a few heartbeat rounds establish liveness first. *)
  Unix.sleepf 0.15;
  Node.shutdown nodes.(2);
  let dead = Node.wait nodes.(2) in
  Alcotest.(check (list int)) "victim suspected nobody" [] dead.Node.suspected;
  (* 6 missed 10ms heartbeats plus scan slack. *)
  Unix.sleepf 0.5;
  Node.shutdown nodes.(0);
  Node.shutdown nodes.(1);
  let s0 = Node.wait nodes.(0) and s1 = Node.wait nodes.(1) in
  Alcotest.(check (list int)) "node0 suspects node2" [ 2 ] s0.Node.suspected;
  Alcotest.(check (list int)) "node1 suspects node2" [ 2 ] s1.Node.suspected

let () =
  Alcotest.run "node"
    [
      ( "config",
        [
          Alcotest.test_case "parse" `Quick test_config_parse;
          Alcotest.test_case "round-trip" `Quick test_config_roundtrip;
          Alcotest.test_case "errors" `Quick test_config_errors;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "detector scaling" `Quick
            test_detector_cfg_scaling;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "3-node loopback serializable" `Quick
            (test_cluster_serializable ~cores:2);
          Alcotest.test_case "hostile frames survived" `Quick
            test_cluster_survives_hostile_frames;
          Alcotest.test_case "oversized frames counted" `Quick
            test_shim_counts_oversized_frames;
          Alcotest.test_case "silent node detected" `Quick
            (test_cluster_detects_silent_node ~cores:2);
          Alcotest.test_case "abandoned epoch change resumes" `Quick
            (test_abandoned_epoch_change_resumes ~cores:2);
          Alcotest.test_case "stuck record finalized by view change" `Quick
            (test_stuck_record_view_change ~cores:2);
          Alcotest.test_case "core send tallies exact" `Quick
            (test_core_send_tallies ~cores:2);
          Alcotest.test_case "core 0 raise fails wait" `Quick
            (test_core0_raise_fails_wait ~cores:2);
          Alcotest.test_case "5-key Reads = five Gets" `Quick
            (test_reads_match_gets ~cores:2);
          Alcotest.test_case "Reads: paused silent, misstamped dropped" `Quick
            test_reads_paused_and_misstamped;
          Alcotest.test_case "write-back finalizes every core's records" `Quick
            (test_write_back_finalizes_every_core ~cores:2);
        ] );
      (* The benchmark's node shape: one domain, core 0 on the loop
         thread, no core inbox at all. *)
      ( "one-core",
        [
          Alcotest.test_case "3-node loopback serializable" `Quick
            (test_cluster_serializable ~cores:1);
          Alcotest.test_case "silent node detected" `Quick
            (test_cluster_detects_silent_node ~cores:1);
          Alcotest.test_case "abandoned epoch change resumes" `Quick
            (test_abandoned_epoch_change_resumes ~cores:1);
          Alcotest.test_case "stuck record finalized by view change" `Quick
            (test_stuck_record_view_change ~cores:1);
          Alcotest.test_case "core send tallies exact" `Quick
            (test_core_send_tallies ~cores:1);
          Alcotest.test_case "superseded epoch changes" `Quick
            test_superseded_epoch_changes;
          Alcotest.test_case "core 0 raise fails wait" `Quick
            (test_core0_raise_fails_wait ~cores:1);
          Alcotest.test_case "write-back finalizes every core's records" `Quick
            (test_write_back_finalizes_every_core ~cores:1);
        ] );
      ( "read table",
        [
          Alcotest.test_case "silent replica rotates the whole batch" `Quick
            test_read_table_rotates_whole_batch;
          Alcotest.test_case "over-cap batch split, every key answered" `Quick
            test_read_table_splits_over_cap;
          Alcotest.test_case "wrong-count reply dropped" `Quick
            test_read_table_drops_bad_replies;
        ] );
      ( "shim",
        [
          Alcotest.test_case "wait flushes, then wakes on a frame" `Quick
            test_wait_flushes_then_wakes;
          Alcotest.test_case "wait times out" `Quick test_wait_times_out;
          Alcotest.test_case "poll-mode send skips the outbox" `Quick
            test_poll_send_skips_outbox;
          Alcotest.test_case "packer: one datagram per destination" `Quick
            test_packer_one_datagram_per_destination;
          Alcotest.test_case "packer: spills past its table" `Quick
            test_packer_spills_past_its_table;
          Alcotest.test_case "packer: oversized frame spares the rest"
            `Quick test_packer_oversized_frame_spares_open_datagrams;
          Alcotest.test_case "send_mask: bytes of per-destination sends"
            `Quick test_send_mask_matches_sends;
          Alcotest.test_case "send_mask: oversized counted per destination"
            `Quick test_send_mask_oversized_per_destination;
          Alcotest.test_case "send_mask: a started shim uses the outbox"
            `Quick test_send_mask_threaded_uses_outbox;
        ] );
      ( "durable",
        [
          Alcotest.test_case "checkpoints log-proportional" `Quick
            test_durable_checkpoints_log_proportional;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "2-shard loopback serializable" `Quick
            test_sharded_cluster_serializable;
          Alcotest.test_case "shard stamp isolates groups" `Quick
            test_shard_stamp_isolates_groups;
        ] );
    ]
