(* Closed-loop clients driving S >= 1 shard groups of {!Node}
   processes over UDP — the cross-process mirror of the live runtime's
   coordinator domains (DESIGN.md §11, §13).

   Each coordinator domain owns one shim socket in inline mode for
   every group (a background socket thread would contend with the
   coordinator loop for the domain's runtime lock; inline polling
   needs no coordination at all, and a send packs straight into the
   socket's datagrams), its own RNG, workload, counters, read table
   and attempt table — coordinators share nothing, merged only after
   join — and runs the node's minor heap ({!Node.minor_heap_words}).
   The loop never spins or dozes: after a pass that delivered
   nothing it blocks in the shim's [wait] until the next frame, the
   earliest armed deadline (attempt timers, read retries) or a short
   cap. Wire v2 frames carry the group stamp: requests are stamped
   with the destination group and replies come back stamped by the
   answering node, so one socket multiplexes S groups without
   ambiguity, and a reply whose stamp disagrees with the read or
   attempt it names is a counted drop.

   A transaction has two wire phases. The execute phase sends one
   [Reads] frame per involved group, carrying every key the
   transaction reads there, to one replica of that group, and gets
   one [Read_replies] back; on silence past the get timeout the whole
   batch rotates to the next replica and is resent (UDP loss, a busy
   node, or a dead one all look the same — the paper's closest-replica
   read with failover); {!Read_table} keeps one entry per batch. The
   commit phase is the paper's §5.2.4 client-side 2PC, shared with the
   other backends through {!Mk_shard.Driver}: one {!Mk_meerkat.Protocol}
   attempt per involved group, kept in a {!Mk_meerkat.Attempts} table, run to its
   decision with the write-back withheld; the global outcome is the
   conjunction, and the write phase is broadcast only then. A
   single-group deployment is the one-shard case of the same code.

   Routing is by coordinator-local ids — a batch id for [Reads] and an
   attempt id (carried in the frames' [slot] field) for validation
   attempts — both unique across clients and groups, so a stale reply
   for a finished read or attempt can never be taken for a live
   one. *)

module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn
module Intf = Mk_model.System_intf
module Quorum = Mk_meerkat.Quorum
module Protocol = Mk_meerkat.Protocol
module Attempts = Mk_meerkat.Attempts
module Codec = Mk_wire.Codec
module Spawn = Mk_live.Spawn
module Workload = Mk_workload.Workload
module Obs = Mk_obs.Obs
module Histogram = Mk_util.Histogram
module Router = Mk_shard.Router
module History = Mk_shard.History

module Net = Shim.Make (struct
  type msg = int * Codec.t

  let encode_into ~scratch ~out (shard, m) =
    Codec.encode_shard_into ~scratch ~out ~shard m

  let decode_at = Codec.decode_shard_at
end)

type workload_kind = Ycsb_t | Rmw_pair | Retwis

type config = {
  coordinators : int;
  clients : int;
  keys : int;
  theta : float;
  workload : workload_kind;
  cross : float;
  txns_per_client : int;
  duration : float option;
  seed : int;
  rto_us : float;
  grace_us : float;
  get_rto_us : float;
}

let default_config =
  {
    coordinators = 2;
    clients = 8;
    keys = 1024;
    theta = 0.6;
    workload = Ycsb_t;
    cross = 0.1;
    txns_per_client = 50;
    duration = None;
    seed = 42;
    (* Real datagrams do get lost (full mailboxes, full socket
       buffers), so unlike the live runtime's safety-net timer this
       one is load-bearing: it must fire well before a human notices,
       without retransmitting into a merely busy node. *)
    rto_us = 100_000.0;
    grace_us = 5_000.0;
    get_rto_us = 50_000.0;
  }

type result = {
  committed : (Txn.t * Timestamp.t) list;
  sub_histories : (int * (Txn.t * Timestamp.t) list) list;
  committed_count : int;
  aborted : int;
  cross_shard : int;
  fast_path : int;
  slow_path : int;
  retransmits : int;
  submitted : int;
  acked : int;
  wall_seconds : float;
  throughput : float;
  abort_rate : float;
  p50_us : float;
  p99_us : float;
  wire_msgs_tx : int;
  wire_msgs_rx : int;
  wire_dgrams_tx : int;
  wire_dgrams_rx : int;
  wire_decode_errors : int;
  wire_shard_drops : int;
  minor_heap_words : int;
}

(* ------------------------------------------------------------------ *)
(* One coordinator domain                                              *)
(* ------------------------------------------------------------------ *)

(* The longest a coordinator blocks when no frame arrives and no timer
   is due sooner: a safety bound, not a poll interval — every wake-up
   the loop needs is a frame or an armed deadline. *)
let idle_cap_us = 5_000.0

type coord = {
  id : int;
  wall : unit -> float;
  atts : Attempts.t;
  reads : Read_table.t;
}

(* Z7: [shard] comes from the router, in [0, shards), and [replica] is
   kept in [0, n) by the read table — neither is ever read off the
   wire. *)
let[@mk_lint.allow "Z7"] send_reads net ~addrs ~coord ~shard ~replica ~rid keys =
  Net.send net ~dst:addrs.(shard).(replica)
    (shard, Codec.Reads { coord; slot = 0; seq = rid; keys })

(* The four GROUP operations of one shard group, as seen from one
   coordinator's socket. *)
module Sock_group = struct
  type t = { shard : int; co : coord }

  let execute_reads g ~client ~keys k =
    let co = g.co in
    Read_table.issue co.reads ~now:(co.wall ()) ~shard:g.shard
      ~target:(client + co.id) ~keys k

  let fresh_txn_stamp g ~client = Attempts.mint g.co.atts ~client ~now:(g.co.wall ())

  let prepare_txn g ~txn ~ts ~on_prepared =
    Attempts.start g.co.atts ~now:(g.co.wall ()) ~shard:g.shard ~txn ~ts
      ~on_decided:on_prepared

  let finalize_txn g ~txn ~ts ~commit =
    Attempts.finalize g.co.atts ~shard:g.shard ~txn ~ts ~commit
end

module Driver2pc = Mk_shard.Driver.Make (Sock_group)

type client = {
  cid : int;
  mutable active : bool;
  mutable submitted : int;
  mutable acked : int;
}

type coord_result = {
  c_sub : (int * (Txn.t * Timestamp.t) list) list;
  c_committed : int;
  c_aborted : int;
  c_cross : int;
  c_fast : int;
  c_slow : int;
  c_submitted : int;
  c_acked : int;
  c_lat : Histogram.t;
  c_obs : Obs.t;
  c_minor_heap : int;
}

(* Each broadcast is one [send_mask]: the message is built and
   encoded once, and its frame goes to every named replica in
   ascending order, the order the packer coalesces them in.
   Z7: [shard] comes from the router, never off the wire. *)
let[@mk_lint.allow "Z7"] sender net ~addrs ~coord =
  {
    Attempts.validate =
      (fun ~shard ~mask ~id txn ts ->
        Net.send_mask net ~dsts:addrs.(shard) ~mask
          (shard, Codec.Validate { coord; slot = id; seq = 0; txn; ts }));
    accept =
      (fun ~shard ~mask ~id txn ts decision ->
        Net.send_mask net ~dsts:addrs.(shard) ~mask
          ( shard,
            Codec.Accept { coord; slot = id; seq = 0; txn; ts; decision; view = 0 } ));
    write_back =
      (fun ~shard ~mask txn ts ~commit ->
        Net.send_mask net ~dsts:addrs.(shard) ~mask
          (shard, Codec.Write_back { txn; ts; commit }));
  }

let coordinator (cfg : config) ~router ~addrs ~t0 ~coord_id =
  Gc.set { (Gc.get ()) with minor_heap_size = Node.minor_heap_words };
  let wall_us () = (Spawn.wall () -. t0) *. 1e6 in
  (* The shim's wire counters and the retransmit count: what [result]
     reports, and nothing else. *)
  let obs = Obs.create ~clock:wall_us () in
  let net =
    match Net.bind () with
    | Ok net -> net
    | Error msg -> failwith ("client socket: " ^ msg)
  in
  Net.set_obs net obs;
  let shards = Array.length addrs in
  let n = Array.length addrs.(0) in
  let atts =
    Attempts.create
      {
        Protocol.n_replicas = n;
        quorum = Quorum.create ~n;
        rto = cfg.rto_us;
        grace = cfg.grace_us;
      }
      ~send:(sender net ~addrs ~coord:coord_id)
      ~on_retransmit:(fun _ -> Obs.note_retransmit obs)
  in
  let reads =
    Read_table.create ~n ~rto:cfg.get_rto_us ~rto_cap:(Attempts.rto_cap atts)
      ~send:(send_reads net ~addrs ~coord:coord_id)
  in
  let co = { id = coord_id; wall = wall_us; atts; reads } in
  let driver =
    Driver2pc.create ~router
      ~groups:(Array.init shards (fun shard -> { Sock_group.shard; co }))
  in
  let rng = Mk_util.Rng.create ~seed:(cfg.seed + (7919 * (coord_id + 1))) in
  let wl =
    match cfg.workload with
    | Ycsb_t -> Workload.ycsb_t ~rng ~keys:cfg.keys ~theta:cfg.theta
    | Rmw_pair -> Workload.rmw_pair ~rng ~keys:cfg.keys ~theta:cfg.theta
    | Retwis -> Workload.retwis ~rng ~keys:cfg.keys ~theta:cfg.theta
  in
  (* The router places by key mod shards ({!Router.Mod}), which is the
     placement the locality knob assumes. *)
  if shards > 1 then
    Workload.set_locality wl (Some { Workload.shards; cross = cfg.cross });
  let local =
    List.init cfg.clients Fun.id
    |> List.filter (fun cid -> cid mod cfg.coordinators = coord_id)
    |> List.map (fun cid -> { cid; active = false; submitted = 0; acked = 0 })
    |> Array.of_list
  in
  let quota_done c ~now =
    match cfg.duration with
    | Some d -> now >= d *. 1e6
    | None -> c.submitted >= cfg.txns_per_client
  in
  let lat = Histogram.create () in
  let cross = ref 0 in
  let start_txn c =
    let req = Workload.next wl in
    let is_cross = shards > 1 && Workload.spans ~shards req in
    c.active <- true;
    c.submitted <- c.submitted + 1;
    Driver2pc.submit driver ~client:c.cid ~reads:req.Intf.reads
      ~writes:(fun _ -> req.Intf.writes)
      ~on_done:(fun ~committed:_ ->
        (* Latency runs from the stamp mint (the end of the execute
           phase) to the global decision. *)
        let minted = Attempts.last_stamp atts ~client:c.cid in
        Histogram.add lat (wall_us () -. minted);
        if is_cross then incr cross;
        c.active <- false;
        c.acked <- c.acked + 1)
  in
  let replica_ok r = r >= 0 && r < n in
  let drop_bad_ids () = Obs.note_wire_decode_error obs in
  let to_attempt ~id ~shard event =
    match Attempts.reply atts ~now:(wall_us ()) ~id ~shard event with
    | Attempts.Misrouted -> Obs.note_wire_shard_drop obs
    | Attempts.Fed | Attempts.Stale -> ()
  in
  (* The three reply kinds are read straight off the shim's cursor,
     field by field and the read values by index: no message is built
     for them. Anything else is server-side or control traffic, not
     for a client socket. *)
  let ignore_frame () ~shard:_ _ = () in
  let replies =
    Codec.dispatcher
      {
        Codec.validated =
          (fun () ~shard ~slot:id ~seq:_ ~replica status ->
            if replica_ok replica then
              to_attempt ~id ~shard (Protocol.Validate_reply { replica; status })
            else drop_bad_ids ());
        accepted =
          (fun () ~shard ~slot:id ~seq:_ ~replica reply ->
            if replica_ok replica then
              to_attempt ~id ~shard (Protocol.Accept_reply { replica; reply })
            else drop_bad_ids ());
        read_replies =
          (fun () ~shard ~slot:_ ~seq:rid ~replica:_ rs ->
            match
              Read_table.reply_with reads ~rid ~shard
                ~n_values:(Codec.replies_count rs) ~n_wts:(Codec.replies_wts_count rs)
                rs ~value:Codec.reply_value ~wts:Codec.reply_wts
            with
            | Read_table.Misrouted -> Obs.note_wire_shard_drop obs
            | Read_table.Malformed -> drop_bad_ids ()
            | Read_table.Fed | Read_table.Stale -> ());
        reads = (fun () ~shard:_ ~coord:_ ~slot:_ ~seq:_ _ -> ());
        held = (fun () _ -> false);
        write_back_held = (fun () ~shard:_ _ ~commit:_ -> ());
        other = ignore_frame;
      }
  in
  let deliver ~src:_ c = Codec.dispatch replies () c in
  let rec loop () =
    let delivered = Net.poll_receiver net ~receive:deliver in
    let now = wall_us () in
    (* Rotate every overdue read batch to the next replica: loss, a
       busy node and a dead one all look like silence. *)
    for _ = 1 to Read_table.retry_due reads ~now do
      Obs.note_retransmit obs
    done;
    Attempts.fire_due atts ~now;
    let all_done = ref true in
    for i = 0 to Array.length local - 1 do
      let c = local.(i) in
      if (not c.active) && not (quota_done c ~now) then start_txn c;
      if c.active || not (quota_done c ~now) then all_done := false
    done;
    if not !all_done then begin
      if delivered = 0 then begin
        (* Nothing arrived: send what this pass queued and block until
           the next frame, the earliest retransmission or read retry,
           or the cap — whichever comes first. *)
        let until =
          Float.min (now +. idle_cap_us)
            (Float.min (Attempts.next_due atts) (Read_table.next_due reads))
        in
        ignore (Net.wait net ~timeout:((until -. now) /. 1e6) : bool)
      end;
      loop ()
    end
  in
  loop ();
  Net.stop net;
  {
    c_sub = Driver2pc.sub_histories driver;
    c_committed = Driver2pc.committed driver;
    c_aborted = Driver2pc.aborted driver;
    c_cross = !cross;
    c_fast = Attempts.fast atts;
    c_slow = Attempts.slow atts;
    c_submitted = Array.fold_left (fun acc c -> acc + c.submitted) 0 local;
    c_acked = Array.fold_left (fun acc c -> acc + c.acked) 0 local;
    c_lat = lat;
    c_obs = obs;
    c_minor_heap = (Gc.get ()).minor_heap_size;
  }

(* ------------------------------------------------------------------ *)
(* Whole-driver run                                                    *)
(* ------------------------------------------------------------------ *)

let resolve clusters =
  Array.fold_right
    (fun cluster acc ->
      match (Cluster_config.sockaddrs cluster, acc) with
      | Ok a, Ok rest -> Ok (a :: rest)
      | (Error _ as e), _ -> e
      | Ok _, (Error _ as e) -> e)
    clusters (Ok [])
  |> Result.map Array.of_list

let run_groups (cfg : config) ~clusters =
  let shards = Array.length clusters in
  if shards < 1 then invalid_arg "Client_driver.run: no cluster";
  if cfg.coordinators < 1 then
    invalid_arg "Client_driver.run: coordinators must be >= 1";
  if cfg.clients < cfg.coordinators then
    invalid_arg "Client_driver.run: clients must be >= coordinators";
  if cfg.cross < 0.0 || cfg.cross > 1.0 then
    invalid_arg "Client_driver.run: cross must be in [0, 1]";
  match resolve clusters with
  | Error _ as e -> e
  | Ok addrs ->
      let n = Array.length addrs.(0) in
      if not (Array.for_all (fun a -> Array.length a = n) addrs) then
        invalid_arg "Client_driver.run: every group needs the same fleet size";
      let router = Router.create ~shards ~keys:cfg.keys () in
      let t0 = Spawn.wall () in
      let results =
        Spawn.parallel ~domains:cfg.coordinators (fun coord_id ->
            coordinator cfg ~router ~addrs ~t0 ~coord_id)
      in
      let wall_seconds = Spawn.wall () -. t0 in
      let total f = List.fold_left (fun acc r -> acc + f r) 0 results in
      let sum name = total (fun r -> Obs.counter_value r.c_obs name) in
      let sub_histories =
        List.init shards (fun shard ->
            (shard, List.concat_map (fun r -> List.assoc shard r.c_sub) results))
      in
      let committed =
        (* One group's sub-history is already over global keys. *)
        match sub_histories with
        | [ (_, history) ] -> history
        | _ -> History.merge ~router sub_histories
      in
      let lat =
        List.fold_left
          (fun acc r -> Histogram.merge acc r.c_lat)
          (Histogram.create ()) results
      in
      let committed_count = total (fun r -> r.c_committed) in
      let aborted = total (fun r -> r.c_aborted) in
      let decided = committed_count + aborted in
      Ok
        {
          committed;
          sub_histories;
          committed_count;
          aborted;
          cross_shard = total (fun r -> r.c_cross);
          fast_path = total (fun r -> r.c_fast);
          slow_path = total (fun r -> r.c_slow);
          retransmits = sum "net.retransmits";
          submitted = total (fun r -> r.c_submitted);
          acked = total (fun r -> r.c_acked);
          wall_seconds;
          throughput = float_of_int committed_count /. wall_seconds;
          abort_rate =
            (if decided = 0 then 0.0
             else float_of_int aborted /. float_of_int decided);
          p50_us = Histogram.percentile lat 50.0;
          p99_us = Histogram.percentile lat 99.0;
          wire_msgs_tx = sum "wire.msgs_tx";
          wire_msgs_rx = sum "wire.msgs_rx";
          wire_dgrams_tx = sum "wire.dgrams_tx";
          wire_dgrams_rx = sum "wire.dgrams_rx";
          wire_decode_errors = sum "wire.decode_errors";
          wire_shard_drops = sum "wire.shard_drops";
          minor_heap_words =
            List.fold_left (fun m r -> min m r.c_minor_heap) max_int results;
        }

let run cfg ~cluster = run_groups cfg ~clusters:[| cluster |]

let shutdown ?(shard = 0) ~cluster () =
  match Cluster_config.sockaddrs cluster with
  | Error _ as e -> e
  | Ok addrs -> (
      match Net.bind () with
      | Error _ as e -> e
      | Ok net ->
          Array.iter (fun dst -> Net.send net ~dst (shard, Codec.Shutdown)) addrs;
          (* stop flushes the queued frames before closing. *)
          Net.stop net;
          Ok ())

let result_json (r : result) =
  Printf.sprintf
    "{\"committed\": %d, \"aborted\": %d, \"cross_shard\": %d, \"fast_path\": \
     %d, \"slow_path\": %d, \"retransmits\": %d, \"submitted\": %d, \
     \"acked\": %d, \"wall_seconds\": %.6f, \"throughput\": %.1f, \
     \"abort_rate\": %.4f, \"p50_us\": %.1f, \"p99_us\": %.1f, \
     \"wire_msgs_tx\": %d, \"wire_msgs_rx\": %d, \"wire_dgrams_tx\": %d, \
     \"wire_dgrams_rx\": %d, \"wire_decode_errors\": %d, \
     \"wire_shard_drops\": %d}"
    r.committed_count r.aborted r.cross_shard r.fast_path r.slow_path
    r.retransmits r.submitted r.acked r.wall_seconds r.throughput r.abort_rate
    r.p50_us r.p99_us r.wire_msgs_tx r.wire_msgs_rx r.wire_dgrams_tx
    r.wire_dgrams_rx r.wire_decode_errors r.wire_shard_drops
