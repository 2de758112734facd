module Engine = Mk_sim.Engine
module Transport = Mk_net.Transport
module Network = Mk_net.Network
module Intf = Mk_model.System_intf
module Txn = Mk_storage.Txn
module Timestamp = Mk_clock.Timestamp
module S = Mk_meerkat.Sim_system
module Replica = Mk_meerkat.Replica
module Nemesis = Mk_fault.Nemesis
module Runtime = Mk_live.Runtime
module Obs = Mk_obs.Obs
module Rng = Mk_util.Rng
module Memlog = Mk_durable.Memlog
module Walcodec = Mk_durable.Walcodec
module Recover = Mk_durable.Recover
module Checkpoint = Mk_durable.Checkpoint
module Tid = Mk_clock.Timestamp.Tid

type backend = Sim | Live

type cfg = {
  seed : int;
  profile : Nemesis.profile;
  threads : int;
  n_clients : int;
  keys : int;
  horizon : float;
  grace : float;
  transport : Transport.t;
  detector : S.detector_cfg;
  trace : bool;
  backend : backend;
}

let default_cfg =
  {
    seed = 1;
    profile = Nemesis.Combo;
    threads = 2;
    n_clients = 8;
    keys = 256;
    horizon = 60_000.0;
    grace = 30_000.0;
    transport = Transport.erpc;
    detector = S.default_detector_cfg;
    trace = false;
    backend = Sim;
  }

let default_live_cfg =
  {
    default_cfg with
    backend = Live;
    (* Wall microseconds: long enough that the horizon-scaled detector
       timeouts dwarf OS scheduling jitter on a loaded machine. *)
    horizon = 800_000.0;
    grace = 400_000.0;
  }

type report = {
  r_cfg : cfg;
  committed_acks : int;
  aborted_acks : int;
  submitted : int;
  acked : int;
  committed : (Txn.t * Timestamp.t) list;
      (** Union of committed trecord entries across replicas. *)
  stuck : int;  (** Non-final trecord entries left at the end. *)
  serializable : (unit, Checker.violation) result;
  agreement : (unit, string) result;
  bounded : (unit, string) result;
  available : (unit, string) result;
  acks_consistent : (unit, string) result;
  durable : (unit, string) result;
  epoch_changes : int;
  view_changes : int;
  duplicated : int;
  delayed : int;
  dropped : int;
  fault_events : int;
  obs : Obs.t;
}

let passed r =
  Result.is_ok r.serializable
  && Result.is_ok r.agreement
  && Result.is_ok r.bounded
  && Result.is_ok r.available
  && Result.is_ok r.acks_consistent
  && Result.is_ok r.durable

(* --- End-of-run invariants, shared by both backends. ---

   Everything deployment-specific is behind two values: the quiescent
   replica array and a committed-value reader. The six verdicts are
   computed from those exactly once, so a sim run and a live run pass
   or fail for the same reasons (the durable verdict is computed by
   [check_durable] below against the backend's own device images and
   handed in through [raw]). *)

(* I6 (durable): replay every replica's durable device — snapshot +
   WAL suffix, the exact reboot path of {!Mk_durable.Recover} — and
   require (a) every committed record in the replica's final trecord
   to be present, committed and at the same timestamp, in its own
   replay, and (b) every [obligation] (a commit observed durable
   before a crash wiped a replica) to survive in the union of replays.
   Together with the acks invariant, (a) alone already implies the
   headline guarantee — nothing acked-committed before a crash is
   missing after replay — because an acked commit is in the final
   committed union, which every replica's replay must cover for its
   own records; (b) additionally pins the crash instant itself on the
   deterministic backend. *)
let check_durable ~cores ~replicas ~sources ~obligations ~note =
  let err = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt
  in
  let replays =
    Array.mapi
      (fun r rep ->
        let parsed = Recover.parse ~cores (sources r) in
        note parsed;
        let committed_in_replay = Tid.Table.create 256 in
        List.iter
          (fun ((_ : int), (v : Replica.record_view)) ->
            if v.status = Txn.Committed then
              Tid.Table.replace committed_in_replay v.txn.Txn.tid v.ts)
          parsed.Recover.records;
        (if not (Replica.is_crashed rep) then
           List.iter
             (fun (_, (e : Mk_storage.Trecord.entry)) ->
               if e.status = Txn.Committed then
                 match Tid.Table.find_opt committed_in_replay e.txn.Txn.tid with
                 | Some ts when Timestamp.compare ts e.ts = 0 -> ()
                 | Some _ ->
                     fail
                       "replica %d: a committed record replays at a different \
                        timestamp"
                       r
                 | None ->
                     fail
                       "replica %d: a committed record is missing from its \
                        WAL+snapshot replay"
                       r)
             (Mk_storage.Trecord.entries (Replica.trecord rep)));
        committed_in_replay)
      replicas
  in
  List.iter
    (fun (tid, ts) ->
      let held =
        Array.exists
          (fun tbl ->
            match Tid.Table.find_opt tbl tid with
            | Some ts' -> Timestamp.compare ts' ts = 0
            | None -> false)
          replays
      in
      if not held then
        fail "a commit durable before a crash is missing from every replay")
    obligations;
  match !err with None -> Ok () | Some e -> Error e

(* Durable obligations: everything committed anywhere at the instant
   of a crash. Finalization happens at (or after) the coordinator's
   ack, so this under-approximates "acked-committed before the crash",
   and each entry already fired the Finalized hook — the union of
   end-of-run replays must still hold it. *)
type obligations = {
  mutable ob_list : (Tid.t * Timestamp.t) list;
  ob_seen : unit Tid.Table.t;
}

let obligations_create () = { ob_list = []; ob_seen = Tid.Table.create 64 }

let obligations_capture ob replicas =
  Array.iter
    (fun rep ->
      if not (Replica.is_crashed rep) then
        List.iter
          (fun (_, (e : Mk_storage.Trecord.entry)) ->
            if
              e.status = Txn.Committed
              && not (Tid.Table.mem ob.ob_seen e.txn.Txn.tid)
            then begin
              Tid.Table.add ob.ob_seen e.txn.Txn.tid ();
              ob.ob_list <- (e.txn.Txn.tid, e.ts) :: ob.ob_list
            end)
          (Mk_storage.Trecord.entries (Replica.trecord rep)))
    replicas

let obligations_list ob = ob.ob_list

(* Durable device: one in-memory log + snapshot slot per (replica,
   core) — the same Walcodec bytes the cluster backend puts on disk,
   surviving the simulated fail-stop. The hooks touch no engine or
   RNG state, so a Calm run stays bit-identical to one without them.
   The sim steps every core on one thread, so one framer per replica
   serves all of its logs. *)
let install_memlog_hooks ~obs ~cores ~replicas ~memlogs =
  Array.iteri
    (fun r rep ->
      let f = Walcodec.framer () in
      Replica.set_durable_hook rep (function
        | Replica.Finalized { core; view } ->
            if core >= 0 && core < cores then begin
              Walcodec.encode_record_into f { Walcodec.core; view };
              Memlog.append_frame memlogs.(r).(core) f;
              Obs.note_wal_append obs ~bytes:(Walcodec.frame_length f)
                ~synced:false
            end
        | Replica.Installed { epoch } ->
            (* The merged epoch state supersedes the log: full per-core
               snapshots cutting at the current log lengths, exactly
               what the cluster backend writes at this hook. *)
            Array.iteri
              (fun core snap ->
                let s = Walcodec.encode_snapshot snap in
                Memlog.set_snapshot memlogs.(r).(core) s;
                Obs.note_snapshot obs ~bytes:(String.length s))
              (Checkpoint.images ~cores ~epoch
                 ~wal_cut:(fun core -> Memlog.log_length memlogs.(r).(core))
                 ~views:(Replica.record_views rep)
                 ~rows:(Replica.store_snapshot rep))))
    replicas

type raw = {
  raw_cfg : cfg;
  raw_replicas : Replica.t array;
  raw_read_committed : replica:int -> key:int -> int option;
  raw_submitted : int;
  raw_acked : int;
  raw_committed_acks : int;
  raw_aborted_acks : int;
  raw_epoch_changes : int;
  raw_view_changes : int;
  raw_duplicated : int;
  raw_delayed : int;
  raw_dropped : int;
  raw_fault_events : int;
  raw_durable : (unit, string) result;
  raw_obs : Obs.t;
}

let evaluate ?committed (raw : raw) =
  let cfg = raw.raw_cfg in
  let replicas = raw.raw_replicas in
  (* Union of committed records across replicas (every replica is
     expected up by now; tolerate a crashed one so the report can say
     *which* invariant failed rather than raising). A sharded caller
     passes the pre-merged global history instead — per-shard trecords
     hold local-key sub-transactions sharing a global tid, so a naive
     union would collapse a cross-shard transaction into one of its
     fragments — and this pass then only counts stuck records. *)
  let seen = Hashtbl.create 1024 in
  let union = ref [] in
  let stuck = ref 0 in
  Array.iter
    (fun r ->
      if not (Replica.is_crashed r) then
        List.iter
          (fun (_, (e : Mk_storage.Trecord.entry)) ->
            if Txn.is_final e.status then begin
              if
                committed = None
                && e.status = Txn.Committed
                && not (Hashtbl.mem seen e.txn.Txn.tid)
              then begin
                Hashtbl.add seen e.txn.Txn.tid ();
                union := (e.txn, e.ts) :: !union
              end
            end
            else incr stuck)
          (Mk_storage.Trecord.entries (Replica.trecord r)))
    replicas;
  let committed = match committed with Some c -> c | None -> !union in
  (* I1: every acknowledged commit forms one serializable history. *)
  let serializable = Checker.check committed in
  (* I2: all replicas are back up and agree on the final state. *)
  let available =
    match
      Array.to_list replicas
      |> List.filter_map (fun r ->
             if Replica.is_available r then None else Some (Replica.id r))
    with
    | [] -> Ok ()
    | down ->
        Error
          (Printf.sprintf "replicas not available at end: %s"
             (String.concat ", " (List.map string_of_int down)))
  in
  let agreement =
    let expected = Checker.final_state committed in
    let err = ref None in
    Array.iter
      (fun r ->
        if Replica.is_crashed r then ()
        else
          for key = 0 to cfg.keys - 1 do
            let want =
              match Hashtbl.find_opt expected key with
              | Some (v, _) -> v
              | None -> 0 (* preloaded value, never overwritten *)
            in
            match raw.raw_read_committed ~replica:(Replica.id r) ~key with
            | Some got when got = want -> ()
            | got ->
                if !err = None then
                  err :=
                    Some
                      (Printf.sprintf
                         "replica %d key %d: expected %d, found %s" (Replica.id r)
                         key want
                         (match got with
                         | Some v -> string_of_int v
                         | None -> "nothing"))
          done)
      replicas;
    match !err with None -> Ok () | Some e -> Error e
  in
  (* I3: no transaction is stuck past the end of the grace period —
     every submission was acknowledged and every trecord entry reached
     a final state (the stuck-record detector swept the stragglers). *)
  let bounded =
    if raw.raw_submitted = raw.raw_acked && !stuck = 0 then Ok ()
    else
      Error
        (Printf.sprintf "%d of %d submissions unacked, %d non-final records"
           (raw.raw_submitted - raw.raw_acked)
           raw.raw_submitted !stuck)
  in
  (* I4: commit acknowledgements and committed records tell the same
     story — an acked commit must be durable on the replicas, and a
     replica-committed transaction must have been acked to its client
     (the closed loop waits for every outcome). *)
  let acks_consistent =
    let ncommitted = List.length committed in
    if raw.raw_committed_acks = ncommitted then Ok ()
    else
      Error
        (Printf.sprintf "%d commits acked but %d committed records"
           raw.raw_committed_acks ncommitted)
  in
  {
    r_cfg = cfg;
    committed_acks = raw.raw_committed_acks;
    aborted_acks = raw.raw_aborted_acks;
    submitted = raw.raw_submitted;
    acked = raw.raw_acked;
    committed;
    stuck = !stuck;
    serializable;
    agreement;
    bounded;
    available;
    acks_consistent;
    durable = raw.raw_durable;
    epoch_changes = raw.raw_epoch_changes;
    view_changes = raw.raw_view_changes;
    duplicated = raw.raw_duplicated;
    delayed = raw.raw_delayed;
    dropped = raw.raw_dropped;
    fault_events = raw.raw_fault_events;
    obs = raw.raw_obs;
  }

(* The workload RNG is derived from the seed but independent of the
   engine's: neither nemesis draws nor network fault draws ever shift
   which keys the clients touch. *)
let workload_rng seed = Rng.create ~seed:(seed lxor 0x63616f73 (* "caos" *))

(* --- Sim backend: nemesis + Sim_system on the discrete engine. --- *)

let run_sim cfg =
  let sys_cfg =
    {
      S.default_config with
      threads = cfg.threads;
      n_clients = cfg.n_clients;
      keys = cfg.keys;
      transport = cfg.transport;
      seed = cfg.seed;
    }
  in
  let engine = Engine.create ~seed:cfg.seed () in
  let obs = Obs.create ~trace:cfg.trace ~clock:(fun () -> Engine.now engine) () in
  let sys = S.create ~obs engine sys_cfg in
  let memlogs =
    Array.init sys_cfg.S.n_replicas (fun _ ->
        Array.init cfg.threads (fun _ -> Memlog.create ()))
  in
  install_memlog_hooks ~obs ~cores:cfg.threads ~replicas:(S.replicas sys)
    ~memlogs;
  (* Nemesis: derived from the same seed, installed before anything
     runs so window bounds are absolute. *)
  let plan =
    Nemesis.plan ~seed:cfg.seed ~profile:cfg.profile ~horizon:cfg.horizon
      ~n_replicas:sys_cfg.S.n_replicas ~n_clients:cfg.n_clients
  in
  let obligations = obligations_create () in
  Nemesis.install ~engine ~net:(S.network sys) ~obs
    ~callbacks:
      {
        Nemesis.crash_replica =
          (fun ~victim ~down_for ->
            obligations_capture obligations (S.replicas sys);
            S.crash_replica ~down_for sys victim);
        crash_coordinator =
          (fun ~client ~down_for -> S.crash_coordinator sys ~client ~down_for);
      }
    plan;
  (* Recovery is detector-driven: the harness never calls
     run_epoch_change or any view-change entry point itself. *)
  S.start_detectors ~cfg:cfg.detector sys ~until:(cfg.horizon +. (cfg.grace /. 2.0)) ();
  (* Closed-loop read-modify-write clients on a hot keyspace. *)
  let rng = workload_rng cfg.seed in
  let committed_acks = ref 0 and aborted_acks = ref 0 in
  let submitted = ref 0 and acked = ref 0 in
  let rec client c =
    if Engine.now engine < cfg.horizon then begin
      incr submitted;
      let key1 = Rng.int rng cfg.keys in
      (* Distinct second key: a write-set with two writes to one key
         has no defined ordering between them (the replica's
         Thomas-rule apply keeps the first, a naive replay the last),
         so the workload never produces one. *)
      let key2 =
        let k = Rng.int rng cfg.keys in
        if k = key1 then (k + 1) mod cfg.keys else k
      in
      S.submit sys ~client:c
        {
          Intf.reads = [| key1 |];
          writes = [| (key1, Rng.int rng 1_000_000); (key2, c) |];
        }
        ~on_done:(fun ~committed ->
          incr acked;
          if committed then incr committed_acks else incr aborted_acks;
          client c)
    end
  in
  for c = 0 to cfg.n_clients - 1 do
    client c
  done;
  Engine.run ~until:(cfg.horizon +. cfg.grace) ~max_events:100_000_000 engine;
  let durable =
    check_durable ~cores:cfg.threads ~replicas:(S.replicas sys)
      ~sources:(fun r ->
        Array.to_list
          (Array.map
             (fun m ->
               { Recover.snap = Memlog.snapshot m; log = Memlog.log_contents m })
             memlogs.(r)))
      ~obligations:(obligations_list obligations)
      ~note:(fun (p : Recover.parsed) ->
        Obs.note_wal_replayed obs ~snapshots:p.Recover.snapshots_used
          ~records:p.Recover.replayed ~errors:p.Recover.decode_errors)
  in
  evaluate
    {
      raw_cfg = cfg;
      raw_replicas = S.replicas sys;
      raw_read_committed =
        (fun ~replica ~key -> S.read_committed sys ~replica ~key);
      raw_submitted = !submitted;
      raw_acked = !acked;
      raw_committed_acks = !committed_acks;
      raw_aborted_acks = !aborted_acks;
      raw_epoch_changes = Obs.counter_value obs "recovery.epoch_changes";
      raw_view_changes = Obs.counter_value obs "recovery.view_changes";
      raw_duplicated = Network.messages_duplicated (S.network sys);
      raw_delayed = Network.messages_delayed (S.network sys);
      raw_dropped = Network.messages_dropped (S.network sys);
      raw_fault_events = Obs.counter_value obs "fault.windows";
      raw_durable = durable;
      raw_obs = obs;
    }

(* --- Live backend: the same plan and invariants on real domains. --- *)

let run_live cfg =
  let horizon_us = cfg.horizon in
  let n_replicas = Runtime.default_config.Runtime.n_replicas in
  let plan =
    Nemesis.plan ~seed:cfg.seed ~profile:cfg.profile ~horizon:horizon_us
      ~n_replicas ~n_clients:cfg.n_clients
  in
  (* Real per-(replica, core) WAL + snapshot files in a scratch data
     dir: the durable invariant replays what actually hit the file
     system, then the dir is removed. *)
  let data_dir =
    Runtime.fresh_data_dir ~tag:(Printf.sprintf "chaos-seed%d" cfg.seed)
  in
  let rt_cfg =
    {
      Runtime.default_config with
      Runtime.server_domains = cfg.threads;
      clients = cfg.n_clients;
      keys = cfg.keys;
      duration = Some (horizon_us /. 1e6);
      seed = cfg.seed;
      (* Chaos-scale retransmission: drops must be retried well inside
         the horizon, not after the fault-free safety-net timeout. *)
      rto_us = horizon_us /. 50.0;
      chaos =
        Some
          {
            Runtime.plan;
            (* The detector field of [cfg] is sim-scaled; live runs
               always derive wall-scale timeouts from their horizon. *)
            detector = Runtime.chaos_detector_cfg ~horizon_us;
            horizon_us;
            settle_us = cfg.grace;
          };
      durable = Some { Runtime.dir = data_dir; policy = Mk_durable.Wal.Every 8 };
    }
  in
  let r = Runtime.run rt_cfg in
  let replicas = r.Runtime.groups.(0) in
  let obs = Obs.create ~clock:(fun () -> 0.0) () in
  Obs.note_wal_appends obs ~appends:r.Runtime.wal_appends
    ~bytes:r.Runtime.wal_bytes ~fsyncs:r.Runtime.wal_fsyncs;
  Obs.note_snapshots obs ~count:r.Runtime.snapshots
    ~bytes:r.Runtime.snapshot_bytes;
  (* No crash-instant obligations here: capturing them would race the
     server domains mid-run. The per-replica completeness check plus
     the acks invariant still pin the headline guarantee (see
     [check_durable]); the deterministic sim backend covers the crash
     instant exactly. *)
  let durable =
    check_durable ~cores:cfg.threads ~replicas
      ~sources:(fun replica ->
        Runtime.read_durable_sources ~dir:data_dir ~replica ~cores:cfg.threads)
      ~obligations:[]
      ~note:(fun (p : Recover.parsed) ->
        Obs.note_wal_replayed obs ~snapshots:p.Recover.snapshots_used
          ~records:p.Recover.replayed ~errors:p.Recover.decode_errors)
  in
  Runtime.remove_data_dir ~dir:data_dir
    ~n_replicas:(Array.length replicas) ~cores:cfg.threads;
  evaluate
    {
      raw_cfg = cfg;
      raw_replicas = replicas;
      raw_read_committed =
        (fun ~replica ~key ->
          match
            Mk_storage.Vstore.find
              (Replica.vstore replicas.(replica))
              key
          with
          | None -> None
          | Some e -> Some (fst (Mk_storage.Vstore.read_versioned e)));
      raw_submitted = r.Runtime.submitted;
      raw_acked = r.Runtime.acked;
      raw_committed_acks = r.Runtime.committed_count;
      raw_aborted_acks = r.Runtime.aborted;
      raw_epoch_changes = r.Runtime.epoch_changes;
      raw_view_changes = r.Runtime.view_changes;
      raw_duplicated = r.Runtime.link_duplicated;
      raw_delayed = r.Runtime.link_delayed;
      raw_dropped = r.Runtime.link_dropped;
      raw_fault_events = r.Runtime.fault_events;
      raw_durable = durable;
      raw_obs = obs;
    }

let run cfg = match cfg.backend with Sim -> run_sim cfg | Live -> run_live cfg

let pp_invariant ppf (name, r) =
  match r with
  | Ok () -> Format.fprintf ppf "  %-14s ok@." name
  | Error e -> Format.fprintf ppf "  %-14s FAILED: %s@." name e

let pp_report ppf r =
  Format.fprintf ppf "seed %d, profile %s%s: %s@." r.r_cfg.seed
    (Nemesis.to_string r.r_cfg.profile)
    (match r.r_cfg.backend with Sim -> "" | Live -> " (live)")
    (if passed r then "PASS" else "FAIL");
  Format.fprintf ppf
    "  %d commits, %d aborts (%d/%d acked); %d dup, %d delayed, %d dropped; %d \
     epoch changes, %d view changes, %d fault events@."
    r.committed_acks r.aborted_acks r.acked r.submitted r.duplicated r.delayed
    r.dropped r.epoch_changes r.view_changes r.fault_events;
  pp_invariant ppf
    ( "serializable",
      Result.map_error
        (fun v -> Format.asprintf "%a" Checker.pp_violation v)
        r.serializable );
  pp_invariant ppf ("agreement", r.agreement);
  pp_invariant ppf ("bounded", r.bounded);
  pp_invariant ppf ("available", r.available);
  pp_invariant ppf ("acks", r.acks_consistent);
  pp_invariant ppf ("durable", r.durable)

let report_json r =
  Printf.sprintf
    "{\"seed\": %d, \"profile\": \"%s\", \"backend\": \"%s\", \"pass\": %b, \
     \"committed_acks\": %d, \"aborted_acks\": %d, \"submitted\": %d, \
     \"acked\": %d, \"stuck\": %d, \"epoch_changes\": %d, \"view_changes\": \
     %d, \"duplicated\": %d, \"delayed\": %d, \"dropped\": %d, \
     \"fault_events\": %d, \"durable\": %b}"
    r.r_cfg.seed
    (Nemesis.to_string r.r_cfg.profile)
    (match r.r_cfg.backend with Sim -> "sim" | Live -> "live")
    (passed r) r.committed_acks r.aborted_acks r.submitted r.acked r.stuck
    r.epoch_changes r.view_changes r.duplicated r.delayed r.dropped
    r.fault_events
    (Result.is_ok r.durable)

let matrix ~seeds ~profiles ~cfg =
  List.concat_map
    (fun profile ->
      List.map (fun seed -> run { cfg with seed; profile }) seeds)
    profiles
