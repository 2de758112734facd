(* Simulated multi-shard deployment (DESIGN.md §13): groups + router
   via Mk_cluster.Groups, cross-shard 2PC via the shared
   Mk_shard.Driver — the absorption of the old sim-only
   lib/meerkat/sharded.ml sketch. *)

module Engine = Mk_sim.Engine
module Intf = Mk_model.System_intf
module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn
module Trecord = Mk_storage.Trecord
module Cluster = Mk_cluster.Cluster
module Groups = Mk_cluster.Groups
module Router = Mk_shard.Router
module History = Mk_shard.History
module Sim_system = Mk_meerkat.Sim_system
module Replica = Mk_meerkat.Replica
module Obs = Mk_obs.Obs
module Registry = Mk_obs.Registry

module Driver = Mk_shard.Driver.Make (struct
  type t = Sim_system.t

  let execute_reads = Sim_system.execute_reads
  let fresh_txn_stamp = Sim_system.fresh_txn_stamp
  let prepare_txn = Sim_system.prepare_txn
  let finalize_txn = Sim_system.finalize_txn
end)

type t = {
  engine : Engine.t;
  obs : Obs.t;
      (** Shared with every group, so the per-phase histograms and
          retransmit counts aggregate across shards. *)
  groups : Sim_system.t Groups.t;
  driver : Driver.t;
}

let create ?obs ?policy engine ~shards cfg =
  if shards < 1 then invalid_arg "Sharded_sim.create: shards must be >= 1";
  let obs =
    match obs with
    | Some obs -> obs
    | None -> Obs.create ~clock:(fun () -> Engine.now engine) ()
  in
  let groups =
    Groups.make ?policy ~shards cfg (fun ~shard:_ cfg ->
        Sim_system.create ~obs engine cfg)
  in
  {
    engine;
    obs;
    groups;
    driver = Driver.create ~router:groups.Groups.router ~groups:groups.Groups.groups;
  }

let shards t = Groups.shards t.groups
let router t = t.groups.Groups.router
let group t s = Groups.group t.groups s
let name t = Printf.sprintf "MEERKAT-%dS" (shards t)
let threads t = Sim_system.threads (group t 0)
let obs t = t.obs
let counters t : Intf.counters = Intf.counters_of_obs t.obs

(* The global outcome is a conjunction of per-shard decisions, so it
   has no fast/slow classification of its own: only committed/aborted
   move here (the per-shard sub-attempts run with
   [count_stats:false]). *)
let note_outcome t ~committed =
  Registry.incr
    (Registry.counter (Obs.registry t.obs)
       (if committed then "txn.committed" else "txn.aborted"))

let submit_gen t ~client ~reads ~mk_writes ~on_done =
  let exec_started = Engine.now t.engine in
  let nreads = Array.length reads in
  Driver.submit t.driver ~client ~reads
    ~writes:(fun values ->
      if nreads > 0 then
        Obs.span t.obs Mk_obs.Span.Execute ~tid:client ~start:exec_started ();
      mk_writes values)
    ~on_done:(fun ~committed ->
      note_outcome t ~committed;
      on_done ~committed)

let submit t ~client (req : Intf.txn_request) ~on_done =
  submit_gen t ~client ~reads:req.reads ~mk_writes:(fun _ -> req.writes) ~on_done

let submit_interactive t ~client ~reads ~compute ~on_done =
  submit_gen t ~client ~reads ~mk_writes:compute ~on_done

let server_busy_fraction t =
  Groups.fold (fun acc g -> acc +. Sim_system.server_busy_fraction g) 0.0 t.groups
  /. float_of_int (shards t)

let read_committed t ~replica ~key =
  let r = router t in
  Sim_system.read_committed
    (group t (Router.shard_of_key r key))
    ~replica ~key:(Router.local_key r key)

let history t = Driver.history t.driver

(* Union of committed trecord entries across a shard's replicas,
   deduplicated by tid: every replica of a group stores the same
   (txn, ts) for a committed record, acked or not. *)
let shard_trecord_commits g =
  let table = Hashtbl.create 256 in
  Array.iter
    (fun r ->
      List.iter
        (fun (_, (e : Trecord.entry)) ->
          if e.Trecord.status = Txn.Committed then
            Hashtbl.replace table e.Trecord.txn.Txn.tid (e.Trecord.txn, e.Trecord.ts))
        (Trecord.entries (Replica.trecord r)))
    (Sim_system.replicas g);
  Hashtbl.fold (fun _ pair acc -> pair :: acc) table []

let trecord_history t =
  History.merge ~router:(router t)
    (List.init (shards t) (fun s -> (s, shard_trecord_commits (group t s))))
