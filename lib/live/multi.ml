(* Multi-group live deployment (DESIGN.md §13): S independent Meerkat
   groups on real OCaml 5 domains, with coordinator domains driving
   the client-side cross-shard 2PC of {!Mk_shard} over bounded
   mailboxes.

   Topology: each shard is a full single-group topology of its own —
   [server_domains] domains, where domain k hosts core k of every
   replica of that shard — so the whole deployment runs
   [shards x server_domains] server domains plus [coordinators]
   coordinator domains. Nothing is shared between shards: distinct
   replicas, distinct mailboxes, distinct trecord partitions. The only
   cross-shard object is the coordinator, exactly as the paper's §5.2.4
   prescribes: the client-chosen globally-unique timestamp lets the
   coordinator run one OCC validation per involved shard and take the
   conjunction, with no shard-to-shard coordination of any kind.

   Per shard, the commit path is the single-group one: the coordinator
   instantiates {!Mk_shard.Driver} over a GROUP whose [prepare_txn]
   drives a fresh {!Mk_meerkat.Protocol} attempt, kept in the shared
   {!Mk_meerkat.Attempts} table, over the shard's mailboxes to a
   decision — withholding the write-back — and whose
   [finalize_txn] broadcasts the write-phase outcome once the global
   conjunction is known. Execute-phase reads go straight to one
   replica's versioned store (the same sanctioned shared-memory get as
   {!Runtime}).

   Deadlock freedom inherits {!Runtime}'s argument, with the floor
   scaled by the fan-out: a coordinator can now have one open attempt
   per involved shard per client, so its inbox is sized to at least
   4 x local clients x replicas x shards (auto-raised, power of two).

   This runner is fault-free by design: chaos stays single-group
   (DESIGN.md §10), and the cluster backend covers multi-shard fault
   injection with real process kills. *)

module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid
module Txn = Mk_storage.Txn
module Quorum = Mk_meerkat.Quorum
module Protocol = Mk_meerkat.Protocol
module Attempts = Mk_meerkat.Attempts
module Replica = Mk_meerkat.Replica
module Workload = Mk_workload.Workload
module Histogram = Mk_util.Histogram
module Router = Mk_shard.Router
module History = Mk_shard.History

type config = {
  shards : int;
  policy : Router.policy;
  server_domains : int;  (** Per shard; also cores per replica. *)
  n_replicas : int;  (** Per shard. Odd, >= 3. *)
  coordinators : int;
  clients : int;
  keys : int;  (** Global keyspace, spread over the shards. *)
  theta : float;
  workload : Runtime.workload_kind;
  cross : float;  (** Probability a multi-key txn spans >1 shard. *)
  txns_per_client : int;
  duration : float option;
  seed : int;
  rto_us : float;
  grace_us : float;
  server_inbox : int;
  coord_inbox : int;
}

let default_config =
  {
    shards = 2;
    policy = Router.Mod;
    server_domains = 2;
    n_replicas = 3;
    coordinators = 2;
    clients = 8;
    keys = 1024;
    theta = 0.6;
    workload = Runtime.Ycsb_t;
    cross = 0.1;
    txns_per_client = 50;
    duration = None;
    seed = 1;
    rto_us = 200_000.0;
    grace_us = 5_000.0;
    server_inbox = 1024;
    coord_inbox = 4096;
  }

type report = {
  shards : int;
  server_domains : int;
  coordinators : int;
  clients : int;
  committed_count : int;
  aborted : int;
  cross_shard : int;  (** Decided transactions that involved >1 shard. *)
  fast_path : int;  (** Per-shard sub-attempts, not global txns. *)
  slow_path : int;
  wall_seconds : float;
  throughput : float;
  abort_rate : float;
  p50_us : float;
  p99_us : float;
  submitted : int;
  acked : int;
  history : (Txn.t * Timestamp.t) list;
  sub_histories : (int * (Txn.t * Timestamp.t) list) list;
  router : Router.t;
  groups : Replica.t array array;  (** [.(shard).(replica)], quiescent. *)
}

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

(* Requests carry (coord, aid): [aid] is the coordinator-local attempt
   id, unique across clients AND shards, so a late reply for a
   finished attempt can never be taken for a live one. Requests need
   no shard field — each shard has its own server mailboxes — but
   replies share the coordinator's inbox, so they name their shard. *)
type server_msg =
  | Validate of {
      replica : int;
      coord : int;
      aid : int;
      txn : Txn.t;
      ts : Timestamp.t;
    }
  | Accept of {
      replica : int;
      coord : int;
      aid : int;
      txn : Txn.t;
      ts : Timestamp.t;
      decision : [ `Commit | `Abort ];
      view : int;
    }
  | Write_back of { replica : int; txn : Txn.t; ts : Timestamp.t; commit : bool }
  | Stop

type coord_msg =
  | Validated of { aid : int; shard : int; replica : int; status : Txn.status }
  | Accepted of {
      aid : int;
      shard : int;
      replica : int;
      reply : Protocol.accept_reply;
    }

(* One shard's shared runtime: its replicas and per-core inboxes. *)
type shard_rt = {
  sr_replicas : Replica.t array;
  sr_inboxes : server_msg Mailbox.t array;
}

(* ------------------------------------------------------------------ *)
(* Server domains (fault-free single-group loop, per shard)            *)
(* ------------------------------------------------------------------ *)

let server_loop ~shard ~core ~replicas ~inbox ~coord_inboxes =
  let rec loop () =
    (* Z8: this parking pop IS the drain loop's idle wait, exactly as
       in {!Runtime.server_loop}. *)
    match (Mailbox.pop inbox [@mk_lint.allow "Z8"]) with
    | Stop -> ()
    | Validate { replica; coord; aid; txn; ts } ->
        (match Replica.handle_validate replicas.(replica) ~core ~txn ~ts with
        | None -> ()
        | Some status ->
            Mailbox.push coord_inboxes.(coord)
              (Validated { aid; shard; replica; status }));
        loop ()
    | Accept { replica; coord; aid; txn; ts; decision; view } ->
        (match
           Replica.handle_accept replicas.(replica) ~core ~txn ~ts ~decision
             ~view
         with
        | None -> ()
        | Some reply ->
            Mailbox.push coord_inboxes.(coord)
              (Accepted { aid; shard; replica; reply }));
        loop ()
    | Write_back { replica; txn; ts; commit } ->
        ignore
          (Replica.handle_commit replicas.(replica) ~core ~txn ~ts ~commit
            : unit option);
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Coordinator domains                                                 *)
(* ------------------------------------------------------------------ *)

(* Coordinator-domain state shared by its per-shard GROUP handles. *)
type coord_state = {
  cs_id : int;
  cs_shards : shard_rt array;
  cs_wall : unit -> float;  (* wall µs since t0 *)
  cs_atts : Attempts.t;
}

type group_handle = { g_shard : int; g_cs : coord_state }

(* Requests of one transaction go to the same core of every replica
   of a shard: the core that owns the tid's trecord partition. *)
let sender (cfg : config) ~shard_rts ~coord =
  let inbox shard (txn : Txn.t) =
    shard_rts.(shard).sr_inboxes.(Tid.hash txn.Txn.tid mod cfg.server_domains)
  in
  {
    Attempts.validate =
      (fun ~shard ~replica ~id txn ts ->
        Mailbox.push (inbox shard txn)
          (Validate { replica; coord; aid = id; txn; ts }));
    accept =
      (fun ~shard ~replica ~id txn ts decision ->
        Mailbox.push (inbox shard txn)
          (Accept { replica; coord; aid = id; txn; ts; decision; view = 0 }));
    write_back =
      (fun ~shard ~replica txn ts ~commit ->
        Mailbox.push (inbox shard txn) (Write_back { replica; txn; ts; commit }));
  }

(* The four GROUP operations of one shard, as seen from one
   coordinator domain. *)
module Live_group = struct
  type t = group_handle

  let execute_read g ~client ~key k =
    let cs = g.g_cs in
    let sr = cs.cs_shards.(g.g_shard) in
    let n = Array.length sr.sr_replicas in
    let rec attempt i =
      if i >= n then (0, Timestamp.zero)
      else
        match
          Replica.handle_get sr.sr_replicas.((cs.cs_id + client + i) mod n) ~key
        with
        | Some v -> v
        | None -> attempt (i + 1)
    in
    k (attempt 0)

  let fresh_txn_stamp g ~client =
    Attempts.mint g.g_cs.cs_atts ~client ~now:(g.g_cs.cs_wall ())

  let prepare_txn g ~txn ~ts ~on_prepared =
    Attempts.start g.g_cs.cs_atts ~now:(g.g_cs.cs_wall ()) ~shard:g.g_shard ~txn
      ~ts ~on_decided:on_prepared

  let finalize_txn g ~txn ~ts ~commit =
    Attempts.finalize g.g_cs.cs_atts ~shard:g.g_shard ~txn ~ts ~commit
end

module Driver = Mk_shard.Driver.Make (Live_group)

type coord_result = {
  mc_sub : (int * (Txn.t * Timestamp.t) list) list;
  mc_committed : int;
  mc_aborted : int;
  mc_cross : int;
  mc_fast : int;
  mc_slow : int;
  mc_submitted : int;
  mc_acked : int;
  mc_lat : Histogram.t;
}

type client = {
  cid : int;
  mutable active : bool;
  mutable submitted : int;
  mutable acked : int;
}

let coordinator (cfg : config) ~t0 ~router ~shard_rts ~coord_inboxes ~coord_id =
  let wall_us () = (Spawn.wall () -. t0) *. 1e6 in
  let atts =
    Attempts.create
      {
        Protocol.n_replicas = cfg.n_replicas;
        quorum = Quorum.create ~n:cfg.n_replicas;
        rto = cfg.rto_us;
        grace = cfg.grace_us;
      }
      ~send:(sender cfg ~shard_rts ~coord:coord_id)
  in
  let cs =
    { cs_id = coord_id; cs_shards = shard_rts; cs_wall = wall_us; cs_atts = atts }
  in
  let driver =
    Driver.create ~router
      ~groups:(Array.init cfg.shards (fun g_shard -> { g_shard; g_cs = cs }))
  in
  let inbox = coord_inboxes.(coord_id) in
  let rng = Mk_util.Rng.create ~seed:(cfg.seed + (7919 * (coord_id + 1))) in
  let wl =
    match cfg.workload with
    | Runtime.Ycsb_t -> Workload.ycsb_t ~rng ~keys:cfg.keys ~theta:cfg.theta
    | Runtime.Rmw_pair -> Workload.rmw_pair ~rng ~keys:cfg.keys ~theta:cfg.theta
    | Runtime.Retwis -> Workload.retwis ~rng ~keys:cfg.keys ~theta:cfg.theta
  in
  if cfg.shards > 1 && cfg.policy = Router.Mod then
    Workload.set_locality wl
      (Some { Workload.shards = cfg.shards; cross = cfg.cross });
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
    let involved = Hashtbl.create 4 in
    Array.iter
      (fun k -> Hashtbl.replace involved (Router.shard_of_key router k) ())
      req.Mk_model.System_intf.reads;
    Array.iter
      (fun (k, _) -> Hashtbl.replace involved (Router.shard_of_key router k) ())
      req.Mk_model.System_intf.writes;
    let is_cross = Hashtbl.length involved > 1 in
    let started = wall_us () in
    c.active <- true;
    c.submitted <- c.submitted + 1;
    Driver.submit driver ~client:c.cid ~reads:req.Mk_model.System_intf.reads
      ~writes:(fun _ -> req.Mk_model.System_intf.writes)
      ~on_done:(fun ~committed:_ ->
        Histogram.add lat (wall_us () -. started);
        if is_cross then incr cross;
        c.active <- false;
        c.acked <- c.acked + 1)
  in
  let dispatch msg =
    let now = wall_us () in
    let (_ : Attempts.reply) =
      match msg with
      | Validated { aid; shard; replica; status } ->
          Attempts.reply atts ~now ~id:aid ~shard
            (Protocol.Validate_reply { replica; status })
      | Accepted { aid; shard; replica; reply } ->
          Attempts.reply atts ~now ~id:aid ~shard
            (Protocol.Accept_reply { replica; reply })
    in
    ()
  in
  let idle = ref 0 in
  let rec loop () =
    let progressed = ref false in
    let budget = ref 256 in
    let rec drain () =
      if !budget > 0 then begin
        match Mailbox.try_pop inbox with
        | Some msg ->
            decr budget;
            progressed := true;
            dispatch msg;
            drain ()
        | None -> ()
      end
    in
    drain ();
    let now = wall_us () in
    Attempts.fire_due atts ~now;
    let all_done = ref true in
    Array.iter
      (fun c ->
        if (not c.active) && not (quota_done c ~now) then begin
          start_txn c;
          progressed := true
        end;
        if c.active || not (quota_done c ~now) then all_done := false)
      local;
    if not !all_done then begin
      if !progressed then idle := 0
      else begin
        incr idle;
        if !idle > 200 then Unix.sleepf 0.0001 else Spawn.relax ()
      end;
      loop ()
    end
  in
  loop ();
  {
    mc_sub = Driver.sub_histories driver;
    mc_committed = Driver.committed driver;
    mc_aborted = Driver.aborted driver;
    mc_cross = !cross;
    mc_fast = Attempts.fast atts;
    mc_slow = Attempts.slow atts;
    mc_submitted = Array.fold_left (fun acc c -> acc + c.submitted) 0 local;
    mc_acked = Array.fold_left (fun acc c -> acc + c.acked) 0 local;
    mc_lat = lat;
  }

(* ------------------------------------------------------------------ *)
(* Whole-deployment run                                                *)
(* ------------------------------------------------------------------ *)

let rec pow2_ceil n acc = if acc >= n then acc else pow2_ceil n (acc * 2)

let run (cfg : config) : report =
  if cfg.shards < 1 then invalid_arg "Multi.run: shards must be >= 1";
  if cfg.server_domains < 1 then
    invalid_arg "Multi.run: server_domains must be >= 1";
  if cfg.coordinators < 1 then invalid_arg "Multi.run: coordinators must be >= 1";
  if cfg.clients < 1 then invalid_arg "Multi.run: clients must be >= 1";
  if cfg.n_replicas < 3 || cfg.n_replicas mod 2 = 0 then
    invalid_arg "Multi.run: n_replicas must be odd and >= 3";
  if cfg.cross < 0.0 || cfg.cross > 1.0 then
    invalid_arg "Multi.run: cross must be in [0, 1]";
  let router = Router.create ~policy:cfg.policy ~shards:cfg.shards ~keys:cfg.keys () in
  let quorum = Quorum.create ~n:cfg.n_replicas in
  let shard_rts =
    Array.init cfg.shards (fun shard ->
        let sr_replicas =
          Array.init cfg.n_replicas (fun id ->
              Replica.create ~id ~quorum ~cores:cfg.server_domains)
        in
        let local_keys = max 1 (Router.local_keys router ~shard) in
        Array.iter
          (fun r ->
            for key = 0 to local_keys - 1 do
              Replica.load r ~key ~value:0
            done)
          sr_replicas;
        {
          sr_replicas;
          sr_inboxes =
            Array.init cfg.server_domains (fun _ ->
                Mailbox.create ~capacity:cfg.server_inbox);
        })
  in
  (* The deadlock-freedom floor, scaled by the cross-shard fan-out
     (see the header comment); auto-raised to the next power of two. *)
  let local_clients = (cfg.clients + cfg.coordinators - 1) / cfg.coordinators in
  let floor = 4 * local_clients * cfg.n_replicas * cfg.shards in
  let coord_capacity = pow2_ceil (max cfg.coord_inbox floor) 2 in
  let coord_inboxes =
    Array.init cfg.coordinators (fun _ -> Mailbox.create ~capacity:coord_capacity)
  in
  let t0 = Spawn.wall () in
  let servers =
    List.concat_map
      (fun shard ->
        let sr = shard_rts.(shard) in
        List.init cfg.server_domains (fun core ->
            Spawn.spawn (fun () ->
                server_loop ~shard ~core ~replicas:sr.sr_replicas
                  ~inbox:sr.sr_inboxes.(core) ~coord_inboxes)))
      (List.init cfg.shards Fun.id)
  in
  let coords =
    List.init cfg.coordinators (fun coord_id ->
        Spawn.spawn (fun () ->
            coordinator cfg ~t0 ~router ~shard_rts ~coord_inboxes ~coord_id))
  in
  let results = List.map Spawn.join coords in
  (* All coordinators have pushed their last write-back before these
     Stops are enqueued, so each server drains everything and exits:
     the final replica state is quiescent. *)
  Array.iter
    (fun sr -> Array.iter (fun inbox -> Mailbox.push inbox Stop) sr.sr_inboxes)
    shard_rts;
  List.iter Spawn.join servers;
  let wall_seconds = Spawn.wall () -. t0 in
  let sub_histories =
    List.init cfg.shards (fun shard ->
        ( shard,
          List.concat_map
            (fun r -> List.assoc shard r.mc_sub)
            results ))
  in
  let history = History.merge ~router sub_histories in
  let committed_count =
    List.fold_left (fun acc r -> acc + r.mc_committed) 0 results
  in
  let aborted = List.fold_left (fun acc r -> acc + r.mc_aborted) 0 results in
  let decided = committed_count + aborted in
  let lat =
    List.fold_left
      (fun acc r -> Histogram.merge acc r.mc_lat)
      (Histogram.create ()) results
  in
  {
    shards = cfg.shards;
    server_domains = cfg.server_domains;
    coordinators = cfg.coordinators;
    clients = cfg.clients;
    committed_count;
    aborted;
    cross_shard = List.fold_left (fun acc r -> acc + r.mc_cross) 0 results;
    fast_path = List.fold_left (fun acc r -> acc + r.mc_fast) 0 results;
    slow_path = List.fold_left (fun acc r -> acc + r.mc_slow) 0 results;
    wall_seconds;
    throughput = float_of_int committed_count /. wall_seconds;
    abort_rate =
      (if decided = 0 then 0.0
       else float_of_int aborted /. float_of_int decided);
    p50_us = Histogram.percentile lat 50.0;
    p99_us = Histogram.percentile lat 99.0;
    submitted = List.fold_left (fun acc r -> acc + r.mc_submitted) 0 results;
    acked = List.fold_left (fun acc r -> acc + r.mc_acked) 0 results;
    history;
    sub_histories;
    router;
    groups = Array.map (fun sr -> sr.sr_replicas) shard_rts;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>shards=%d servers=%dx%d coordinators=%d clients=%d@,\
     committed=%d aborted=%d (abort rate %.1f%%) cross-shard=%d@,\
     fast=%d slow=%d (per-shard sub-attempts)@,\
     %.2f s wall, %.0f committed txn/s, latency p50=%.0f us p99=%.0f us@]"
    r.shards r.shards r.server_domains r.coordinators r.clients
    r.committed_count r.aborted (100.0 *. r.abort_rate) r.cross_shard
    r.fast_path r.slow_path r.wall_seconds r.throughput r.p50_us r.p99_us

let report_json r =
  Printf.sprintf
    "{\"shards\": %d, \"server_domains\": %d, \"coordinators\": %d, \
     \"clients\": %d, \"committed\": %d, \"aborted\": %d, \"cross_shard\": \
     %d, \"abort_rate\": %.4f, \"fast_path\": %d, \"slow_path\": %d, \
     \"wall_seconds\": %.4f, \"throughput\": %.1f, \"p50_us\": %.1f, \
     \"p99_us\": %.1f, \"submitted\": %d, \"acked\": %d}"
    r.shards r.server_domains r.coordinators r.clients r.committed_count
    r.aborted r.cross_shard r.abort_rate r.fast_path r.slow_path
    r.wall_seconds r.throughput r.p50_us r.p99_us r.submitted r.acked
