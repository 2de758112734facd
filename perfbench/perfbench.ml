(* perfbench: the repository benchmark.

   Four workloads on real execution — the live runtime on OCaml
   domains and a cluster of forked meerkat_node processes over
   loopback UDP — each measured end to end with tracing off, plus a
   separate traced run that prices every layer on the workload's own
   inputs and reconciles those prices with the measured CPU per
   transaction.

     perfbench.exe --workload live-closed --seed 1 --seconds 10 --trace 0 \
       --node-exe _build/default/bin/meerkat_node.exe --work-dir .perfbench

   Normally driven through run.py, which builds this program and the
   node binary first. Progress and the run record go to stderr; the
   last line of stdout is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics]. Exit 1 when a correctness
   check fails (the JSON is still printed, with [correct: false]);
   exit 2 when the run could not be carried out at all. *)

module Runtime = Mk_live.Runtime
module Mailbox = Mk_live.Mailbox
module Spawn = Mk_live.Spawn
module Driver = Mk_node.Client_driver
module Cluster_config = Mk_node.Cluster_config
module Checker = Mk_harness.Checker
module Workload = Mk_workload.Workload
module Intf = Mk_model.System_intf
module Protocol = Mk_meerkat.Protocol
module Replica = Mk_meerkat.Replica
module Batch = Mk_meerkat.Batch
module Quorum = Mk_meerkat.Quorum
module Codec = Mk_wire.Codec
module Wal = Mk_durable.Wal
module Walcodec = Mk_durable.Walcodec
module Snapshot = Mk_durable.Snapshot
module Tracer = Mk_obs.Tracer
module Export = Mk_obs.Export
module Txn = Mk_storage.Txn
module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
let now_ns () = Int64.to_float (Monotonic_clock.now ())
let now_s () = now_ns () *. 1e-9

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type mix = Ycsb | Retwis

type backend =
  | Live of { offered : float option }  (** [None] = closed loop. *)
  | Cluster of { durable : bool }

type spec = {
  name : string;
  backend : backend;
  mix : mix;
  keys : int;
  theta : float;
  clients : int;
}

(* Sized for a 2-core machine: the load generator never uses more than
   two domains (live: one server + one coordinator; cluster: one
   coordinator) or two sockets. No workload injects message delay, so
   latency is CPU plus scheduler time. *)
let specs =
  [
    (* The per-message CPU path at saturation: Protocol, Batch,
       Replica -> Occ/Trecord/Vstore, Mailbox.drain. 65,536 keys is
       larger than cache. *)
    {
      name = "live-closed";
      backend = Live { offered = None };
      mix = Ycsb;
      keys = 65_536;
      theta = 0.3;
      clients = 16;
    };
    (* Same topology well below the knee: the loops idle between
       arrivals, so idle backoff and Mailbox park/wake set p50. *)
    {
      name = "live-open";
      backend = Live { offered = Some 8000.0 };
      mix = Ycsb;
      keys = 65_536;
      theta = 0.3;
      clients = 16;
    };
    (* The only path through Codec, Shim and loopback UDP; Retwis reads
       travel as Get frames. *)
    {
      name = "cluster-closed";
      backend = Cluster { durable = false };
      mix = Retwis;
      keys = 1024;
      theta = 0.3;
      clients = 8;
    };
    (* The cluster with a WAL and snapshots: Walcodec, Wal, Snapshot. *)
    {
      name = "cluster-durable";
      backend = Cluster { durable = true };
      mix = Ycsb;
      keys = 1024;
      theta = 0.3;
      clients = 8;
    };
  ]

let n_replicas = 3
let fsync_every = 8

(* Measured segments per end-to-end run, each with its own set-up. *)
let segments = 10

let is_cluster spec = match spec.backend with Cluster _ -> true | Live _ -> false

let is_durable spec =
  match spec.backend with Cluster { durable } -> durable | Live _ -> false

(* Segment [k] of a run draws its inputs from its own seed, derived
   from the run's --seed alone. *)
let segment_seed ~seed k = (seed * 1_000_003) + k

(* The first coordinator's stream, derived exactly as the live runtime
   and the client driver derive it, so the lockstep run replays the
   inputs of the end-to-end run. *)
let make_workload spec ~seed =
  let rng = Mk_util.Rng.create ~seed:(seed + 7919) in
  match spec.mix with
  | Ycsb -> Workload.ycsb_t ~rng ~keys:spec.keys ~theta:spec.theta
  | Retwis -> Workload.retwis ~rng ~keys:spec.keys ~theta:spec.theta

let spec_json spec =
  Printf.sprintf
    "{\"backend\": \"%s\", \"mix\": \"%s\", \"replicas\": %d, \"keys\": %d, \
     \"theta\": %.2f, \"clients\": %d, \"offered_tps\": %s, \"durable\": %b, \
     \"fsync\": \"%s\"}"
    (if is_cluster spec then "cluster" else "live")
    (match spec.mix with Ycsb -> "ycsb-t" | Retwis -> "retwis")
    n_replicas spec.keys spec.theta spec.clients
    (match spec.backend with
    | Live { offered = Some r } -> Printf.sprintf "%.0f" r
    | Live { offered = None } | Cluster _ -> "null")
    (is_durable spec)
    (if is_durable spec then Printf.sprintf "every=%d" fsync_every else "none")

(* ------------------------------------------------------------------ *)
(* End-to-end segments                                                 *)
(* ------------------------------------------------------------------ *)

(* One measured segment: a full set-up, a timed window, a teardown and
   the correctness checks (outside the window). *)
type seg = {
  setup_s : float;
  wall_s : float;
  committed : int;
  aborted : int;
  submitted : int;
  p50_us : float;
  p99_us : float;
  cpu_s : float;
  minor_words : float;
  majors : int;
  fast : int;
  slow : int;
  retransmits : int;
  frames : int;
  bytes : int;
  wal_appends : int;
  wal_fsyncs : int;
  snapshots : int;
  failures : string list;
}

(* User+sys CPU of this process and every child it has reaped (the
   cluster's nodes). *)
let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let per_txn total committed = if committed = 0 then 0.0 else total /. float_of_int committed

(* The checks every committed history must pass: one-copy
   serializability, no transaction lost, decided = acked. *)
let history_failures ~committed ~committed_count ~aborted ~submitted ~acked =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if committed_count = 0 then fail "no transaction committed";
  if List.length committed <> committed_count then
    fail "history holds %d commits, counters say %d" (List.length committed)
      committed_count;
  if committed_count + aborted <> acked then
    fail "decided %d <> acked %d" (committed_count + aborted) acked;
  if submitted <> acked then
    fail "lost transactions: %d submitted, %d acked" submitted acked;
  (match Checker.check committed with
  | Ok () -> ()
  | Error v ->
      fail "serializability violation: %s"
        (Format.asprintf "%a" Checker.pp_violation v));
  List.rev !failures

let live_segment spec ~seed ~seconds =
  let offered = match spec.backend with Live l -> l.offered | Cluster _ -> None in
  let cfg =
    {
      Runtime.default_config with
      server_domains = 1;
      n_replicas;
      coordinators = 1;
      clients = spec.clients;
      keys = spec.keys;
      theta = spec.theta;
      workload = (match spec.mix with Ycsb -> Runtime.Ycsb_t | Retwis -> Runtime.Retwis);
      duration = Some seconds;
      offered_rate = offered;
      seed;
    }
  in
  let cpu0 = cpu_time () in
  let t0 = now_s () in
  let r = Runtime.run cfg in
  let t1 = now_s () in
  let cpu1 = cpu_time () in
  let {
    Runtime.committed;
    committed_count;
    aborted;
    submitted;
    acked;
    wall_seconds;
    p50_us;
    p99_us;
    gc_minor_words;
    gc_majors;
    fast_path;
    slow_path;
    retransmits;
    wal_appends;
    wal_fsyncs;
    snapshots;
    _;
  } =
    r
  in
  (* Set-up (the key load) is everything in the call outside the
     runtime's own window; it runs on one domain, so its CPU equals its
     wall time and is taken out of the per-transaction CPU. *)
  let setup_s = t1 -. t0 -. wall_seconds in
  {
    setup_s;
    wall_s = wall_seconds;
    committed = committed_count;
    aborted;
    submitted;
    p50_us;
    p99_us;
    cpu_s = cpu1 -. cpu0 -. setup_s;
    minor_words = float_of_int gc_minor_words;
    majors = gc_majors;
    fast = fast_path;
    slow = slow_path;
    retransmits;
    frames = 0;
    bytes = 0;
    wal_appends;
    wal_fsyncs;
    snapshots;
    failures =
      history_failures ~committed ~committed_count ~aborted ~submitted ~acked;
  }

(* --- cluster plumbing ---------------------------------------------- *)

module Net = Mk_node.Shim.Make (struct
  type msg = int * Codec.t

  let encode_into ~scratch ~out (shard, m) =
    Codec.encode_shard_into ~scratch ~out ~shard m

  let decode_at = Codec.decode_shard_at
end)

type child = {
  pid : int;
  mutable to_child : Unix.file_descr option;  (** [None] once closed. *)
  from_child : Unix.file_descr;
  buf : Buffer.t;
  mutable status : Unix.process_status option;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One line from the child's stdout, or [None] at EOF or timeout. Reads
   straight off the fd so the select timeout stays exact. *)
let read_line child ~timeout_s =
  let deadline = now_s () +. timeout_s in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents child.buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear child.buf;
        Buffer.add_string child.buf (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> (
        let remaining = deadline -. now_s () in
        if remaining <= 0.0 then None
        else
          match Unix.select [ child.from_child ] [] [] remaining with
          | [], _, _ -> None
          | _ -> (
              match Unix.read child.from_child chunk 0 (Bytes.length chunk) with
              | 0 -> None
              | n ->
                  Buffer.add_subbytes child.buf chunk 0 n;
                  go ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let spawn_node ~node_exe ~name ~keys ~data_dir =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let args =
    [
      node_exe; "--me"; name; "--cluster"; "-"; "--port"; "auto"; "--cores"; "1";
      "--keys"; string_of_int keys;
    ]
    @
    match data_dir with
    | Some dir -> [ "--data-dir"; dir; "--fsync"; Printf.sprintf "every=%d" fsync_every ]
    | None -> []
  in
  let pid =
    Unix.create_process node_exe (Array.of_list args) stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  { pid; to_child = Some stdin_w; from_child = stdout_r; buf = Buffer.create 256; status = None }

(* The node reads its config until EOF; closing twice could close an fd
   number reused since. *)
let close_stdin child =
  Option.iter close_quietly child.to_child;
  child.to_child <- None

let reap child =
  match child.status with
  | Some st -> st
  | None ->
      let st = snd (Unix.waitpid [] child.pid) in
      child.status <- Some st;
      st

let kill_and_reap child =
  if child.status = None then begin
    (try Unix.kill child.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap child : Unix.process_status)
  end;
  close_stdin child;
  close_quietly child.from_child

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* An integer field of a node's exit-stats JSON (flat, written by the
   node itself); [None] when absent. *)
let int_field json name =
  let key = Printf.sprintf "\"%s\": " name in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length json then None
    else if String.sub json i kl = key then Some (i + kl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while
        !stop < String.length json
        && match json.[!stop] with '0' .. '9' | '-' -> true | _ -> false
      do
        incr stop
      done;
      int_of_string_opt (String.sub json start (!stop - start))

(* The nodes read their config and launch asynchronously; a Get
   answered by every node proves each one is serving. *)
let wait_ready addrs =
  match Net.bind () with
  | Error e -> failwith ("probe socket: " ^ e)
  | Ok net ->
      Fun.protect
        ~finally:(fun () -> Net.stop net)
        (fun () ->
          let n = Array.length addrs in
          let ready = Array.make n false in
          let deadline = now_s () +. 10.0 in
          let probe = (0, Codec.Get { coord = 0; slot = 0; seq = 0; key = 0 }) in
          let deliver ~src:_ ((_, m) : int * Codec.t) =
            match m with
            | Codec.Get_reply { replica; _ } when replica >= 0 && replica < n ->
                ready.(replica) <- true
            | _ -> ()
          in
          let rec loop next_send =
            if not (Array.for_all Fun.id ready) then begin
              let now = now_s () in
              if now > deadline then failwith "nodes did not start serving";
              let next_send =
                if now < next_send then next_send
                else begin
                  Array.iteri
                    (fun i a -> if not ready.(i) then Net.send net ~dst:a probe)
                    addrs;
                  now +. 0.02
                end
              in
              if Net.poll net ~deliver = 0 then Unix.sleepf 0.0002;
              loop next_send
            end
          in
          loop 0.0)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* Shutdown is a UDP frame: resend until every node has printed its
   exit stats (or give up after five rounds). *)
let gather_stats ~cluster nodes =
  let stats = Array.make (Array.length nodes) None in
  let attempts = ref 0 in
  while Array.exists Option.is_none stats && !attempts < 5 do
    incr attempts;
    (match Driver.shutdown ~cluster () with Ok () | Error _ -> ());
    Array.iteri
      (fun i c ->
        let rec scan () =
          if stats.(i) = None then
            match read_line c ~timeout_s:2.0 with
            | None -> ()
            | Some line ->
                if String.length line > 6 && String.sub line 0 6 = "stats " then
                  stats.(i) <- Some (String.sub line 6 (String.length line - 6))
                else scan ()
        in
        scan ())
      nodes
  done;
  stats

(* Set-up is fork, port handshake and launch: from the first fork until
   every node answers a read. *)
let cluster_segment spec ~seed ~seconds ~node_exe ~work_dir ~seg_id =
  let data_base =
    if is_durable spec then
      Some (Filename.concat work_dir (Printf.sprintf "data-%d-%d" (Unix.getpid ()) seg_id))
    else None
  in
  let children = ref [] in
  let cleanup () =
    List.iter kill_and_reap !children;
    Option.iter rm_rf data_base
  in
  Fun.protect ~finally:cleanup (fun () ->
      Option.iter rm_rf data_base;
      Option.iter (fun d -> Unix.mkdir d 0o755) data_base;
      let cpu0 = cpu_time () in
      let t0 = now_s () in
      let nodes =
        Array.init n_replicas (fun i ->
            let c =
              spawn_node ~node_exe ~name:(Printf.sprintf "node%d" i) ~keys:spec.keys
                ~data_dir:
                  (Option.map
                     (fun b -> Filename.concat b (Printf.sprintf "node%d" i))
                     data_base)
            in
            children := c :: !children;
            c)
      in
      let cluster =
        Array.mapi
          (fun i c ->
            let port =
              match read_line c ~timeout_s:10.0 with
              | Some line -> (
                  match String.split_on_char ' ' line with
                  | [ "port"; p ] -> int_of_string_opt p
                  | _ -> None)
              | None -> None
            in
            match port with
            | Some port ->
                { Cluster_config.name = Printf.sprintf "node%d" i; host = "127.0.0.1"; port }
            | None -> failwith (Printf.sprintf "node%d: no port announcement" i))
          nodes
      in
      let text = Cluster_config.to_string cluster in
      Array.iter
        (fun c ->
          Option.iter (fun fd -> write_all fd text) c.to_child;
          close_stdin c)
        nodes;
      (match Cluster_config.sockaddrs cluster with
      | Ok addrs -> wait_ready addrs
      | Error e -> failwith e);
      let setup_s = now_s () -. t0 in
      let dcfg =
        {
          Driver.default_config with
          coordinators = 1;
          clients = spec.clients;
          keys = spec.keys;
          theta = spec.theta;
          workload = (match spec.mix with Ycsb -> Driver.Ycsb_t | Retwis -> Driver.Retwis);
          duration = Some seconds;
          seed;
        }
      in
      let gc0 = Gc.quick_stat () in
      let r = match Driver.run dcfg ~cluster with Ok r -> r | Error e -> failwith e in
      let gc1 = Gc.quick_stat () in
      let stats = gather_stats ~cluster nodes in
      let failures = ref [] in
      let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
      Array.iteri
        (fun i c ->
          if stats.(i) = None then begin
            fail "node%d: no exit stats" i;
            try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ()
          end;
          match reap c with
          | Unix.WEXITED 0 -> ()
          | Unix.WEXITED n -> fail "node%d: exit %d" i n
          | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail "node%d: signal %d" i s)
        nodes;
      let cpu1 = cpu_time () in
      let field name =
        Array.fold_left
          (fun acc st ->
            match Option.map (fun json -> int_field json name) st with
            | None -> acc
            | Some (Some v) -> acc + v
            | Some None ->
                fail "node stats lack %s" name;
                acc)
          0 stats
      in
      let {
        Driver.committed;
        committed_count;
        aborted;
        submitted;
        acked;
        wall_seconds;
        p50_us;
        p99_us;
        fast_path;
        slow_path;
        retransmits;
        wire_msgs_tx;
        wire_decode_errors;
        _;
      } =
        r
      in
      if wire_decode_errors <> 0 then fail "client saw %d wire decode errors" wire_decode_errors;
      let node_decode_errors = field "wire_decode_errors" in
      if node_decode_errors <> 0 then fail "nodes saw %d wire decode errors" node_decode_errors;
      let frames = wire_msgs_tx + field "wire_msgs_tx" in
      let bytes = field "wire_bytes_tx" + field "wire_bytes_rx" in
      let wal_appends = field "wal_appends" in
      let wal_fsyncs = field "wal_fsyncs" in
      let snapshots = field "snapshots" in
      {
        setup_s;
        wall_s = wall_seconds;
        committed = committed_count;
        aborted;
        submitted;
        p50_us;
        p99_us;
        cpu_s = cpu1 -. cpu0;
        minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
        majors = gc1.Gc.major_collections - gc0.Gc.major_collections;
        fast = fast_path;
        slow = slow_path;
        retransmits;
        frames;
        bytes;
        wal_appends;
        wal_fsyncs;
        snapshots;
        failures =
          List.rev !failures
          @ history_failures ~committed ~committed_count ~aborted ~submitted ~acked;
      })

let run_segment spec ~seed ~seconds ~node_exe ~work_dir ~seg_id =
  (* Start every segment from a collected heap, so no segment pays for
     the garbage of the one before it. *)
  Gc.full_major ();
  let s =
    match spec.backend with
    | Live _ -> live_segment spec ~seed ~seconds
    | Cluster _ -> cluster_segment spec ~seed ~seconds ~node_exe ~work_dir ~seg_id
  in
  log
    "segment %d: setup %.3f s, %d/%d committed in %.2f s, p50 %.0f us, p99 %.0f us, \
     %.0f cpu us/txn, %.0f words/txn%s"
    seg_id s.setup_s s.committed s.submitted s.wall_s s.p50_us s.p99_us
    (per_txn (1e6 *. s.cpu_s) s.committed)
    (per_txn s.minor_words s.committed)
    (if s.failures = [] then "" else "; FAILED: " ^ String.concat "; " s.failures);
  s

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Interquartile mean: the mean of the middle half of the segments
   (all of them when there are fewer than four). Robust to a stalled
   segment like a median, and finer-grained than a median of the
   histogram's 4% latency buckets. *)
let iq_mean xs =
  let a = sorted xs in
  let n = Array.length a in
  let cut = n / 4 in
  let a = Array.sub a cut (n - (2 * cut)) in
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let isum f segs = List.fold_left (fun acc s -> acc + f s) 0 segs
let fsum f segs = List.fold_left (fun acc s -> acc +. f s) 0.0 segs

type metric = { m_name : string; unit_ : string; value : float }

let m m_name unit_ value = { m_name; unit_; value }

let cpu_us_per_txn segs =
  per_txn (1e6 *. fsum (fun s -> s.cpu_s) segs) (isum (fun s -> s.committed) segs)

let e2e_metrics segs =
  let committed = isum (fun s -> s.committed) segs in
  let submitted = isum (fun s -> s.submitted) segs in
  let per_seg f = iq_mean (List.map f segs) in
  [
    m "goodput_tps" "txn/s" (per_seg (fun s -> float_of_int s.committed /. s.wall_s));
    m "p50_us" "us" (per_seg (fun s -> s.p50_us));
    m "p99_us" "us" (per_seg (fun s -> s.p99_us));
    m "commit_frac" "ratio" (float_of_int committed /. float_of_int (max 1 submitted));
    m "cpu_us_per_txn" "us" (per_seg (fun s -> cpu_us_per_txn [ s ]));
    m "alloc_words_per_txn" "words" (per_seg (fun s -> per_txn s.minor_words s.committed));
    m "setup_s" "s" (median (List.map (fun s -> s.setup_s) segs));
  ]

(* ------------------------------------------------------------------ *)
(* The traced lockstep run                                             *)
(* ------------------------------------------------------------------ *)

(* Spans are recorded from here, around each call into a layer: self
   time is a span's duration minus its children's, accumulated per
   span name. With [on = false] the same code runs with no clock reads
   and no recording — the untraced twin that prices the tracing. *)
type acc = { mutable self_ns : float; mutable calls : int }

type tracing = {
  on : bool;
  tracer : Tracer.t;
  origin_ns : float;
  accs : (string, acc) Hashtbl.t;
  mutable children_ns : float;
  mutable txn_seq : int;
}

let new_tracing ~on =
  {
    on;
    tracer = Tracer.create ~enabled:on ~clock:(fun () -> now_ns () /. 1e3) ();
    origin_ns = now_ns ();
    accs = Hashtbl.create 32;
    children_ns = 0.0;
    txn_seq = 0;
  }

let acc_of tr name =
  match Hashtbl.find_opt tr.accs name with
  | Some a -> a
  | None ->
      let a = { self_ns = 0.0; calls = 0 } in
      Hashtbl.replace tr.accs name a;
      a

let span ?args tr name f =
  if not tr.on then f ()
  else begin
    let outer = tr.children_ns in
    tr.children_ns <- 0.0;
    let t0 = now_ns () in
    let v = f () in
    let t1 = now_ns () in
    let d = t1 -. t0 in
    let a = acc_of tr name in
    a.self_ns <- a.self_ns +. (d -. tr.children_ns);
    a.calls <- a.calls + 1;
    tr.children_ns <- outer +. d;
    let args =
      match args with Some a -> a | None -> [ ("txn", Tracer.Int tr.txn_seq) ]
    in
    Tracer.complete tr.tracer ~cat:"lockstep" ~args ~name ~pid:1 ~tid:0
      ~start:((t0 -. tr.origin_ns) /. 1e3)
      ~finish:((t1 -. tr.origin_ns) /. 1e3)
      ();
    v
  end

type lockstep = {
  spec : spec;
  tr : tracing;
  replicas : Replica.t array;
  wl : Workload.t;
  params : Protocol.params;
  acts : Protocol.action Batch.t;
  mbox : Codec.t Mailbox.t;
  scratch : Buffer.t;
  out : Buffer.t;
  dir : string;
  wals : Wal.t array;
  appends : int array;
  mutable history : (Txn.t * Timestamp.t) list;
  mutable txns : int;
  mutable reading : int;  (** Transactions with a non-empty read set. *)
  mutable ls_failures : string list;
  mutable last : (Txn.t * Timestamp.t) option;
}

let snapshot_every = 64

let new_lockstep spec ~seed ~on ~dir =
  let tr = new_tracing ~on in
  let quorum = Quorum.create ~n:n_replicas in
  let replicas = Array.init n_replicas (fun id -> Replica.create ~id ~quorum ~cores:1) in
  Array.iter
    (fun r ->
      for key = 0 to spec.keys - 1 do
        Replica.load r ~key ~value:0
      done)
    replicas;
  let wals =
    if is_durable spec then
      Array.init n_replicas (fun r ->
          Wal.open_log
            ~path:(Filename.concat dir (Printf.sprintf "r%d.wal" r))
            ~policy:Wal.Never)
    else [||]
  in
  let ls =
    {
      spec;
      tr;
      replicas;
      wl = make_workload spec ~seed;
      params =
        {
          Protocol.n_replicas;
          quorum;
          rto = Runtime.default_config.Runtime.rto_us;
          grace = Runtime.default_config.Runtime.grace_us;
        };
      acts = Batch.create ();
      mbox = Mailbox.create ~capacity:64;
      scratch = Buffer.create 256;
      out = Buffer.create 1024;
      dir;
      wals;
      appends = Array.make n_replicas 0;
      history = [];
      txns = 0;
      reading = 0;
      ls_failures = [];
      last = None;
    }
  in
  (* The node's persistence path: every finalization is framed and
     appended to the owning core's log, with an fsync every
     [fsync_every] appends, timed on its own. *)
  if is_durable spec then
    Array.iteri
      (fun r rep ->
        Replica.set_durable_hook rep (function
          | Replica.Finalized { core; view } ->
              let s =
                span tr "walcodec.encode" (fun () ->
                    Walcodec.encode_record { Walcodec.core; view })
              in
              ignore
                (span tr "wal.append" (fun () -> Wal.append wals.(r) s)
                  : [ `Synced | `Buffered ]);
              ls.appends.(r) <- ls.appends.(r) + 1;
              if ls.appends.(r) mod fsync_every = 0 then
                span tr "wal.fsync" (fun () -> Wal.sync wals.(r))
          | Replica.Installed _ -> ()))
      replicas;
  ls

let close_lockstep ls = Array.iter Wal.close ls.wals

let ls_fail ls fmt = Printf.ksprintf (fun s -> ls.ls_failures <- s :: ls.ls_failures) fmt

(* One mailbox hop: push, then drain on the same domain (the
   cross-domain wake is priced by its own ping-pong). *)
let mailbox_hop ls msg =
  span ls.tr "mailbox.push_drain" (fun () ->
      Mailbox.push ls.mbox msg;
      ignore (Mailbox.drain ls.mbox ~max:1 ignore : int))

(* One cluster frame: queued in the sender's shim outbox (a mailbox,
   drained at flush), encoded, decoded by the receiver — the round trip
   must give the message back — and, for requests a node core serves,
   steered through that core's inbox. *)
let frame ?(to_core = false) ls msg =
  mailbox_hop ls msg;
  Buffer.clear ls.out;
  span ls.tr "codec.encode" (fun () ->
      Codec.encode_shard_into ~scratch:ls.scratch ~out:ls.out ~shard:0 msg);
  let s = Buffer.contents ls.out in
  (match span ls.tr "codec.decode" (fun () -> Codec.decode_shard_at s ~pos:0) with
  | Ok ((_, back), _) ->
      if not (Codec.equal back msg) then
        ls_fail ls "codec round trip changed a %s frame" (Codec.kind_name msg)
  | Error _ -> ls_fail ls "codec could not decode a %s frame" (Codec.kind_name msg));
  if to_core then mailbox_hop ls msg

let write_snapshot ls =
  let rep = ls.replicas.(0) in
  let s =
    Walcodec.encode_snapshot
      {
        Walcodec.core = 0;
        epoch = Replica.epoch rep;
        wal_cut = Wal.length ls.wals.(0);
        views = List.map snd (Replica.record_views rep);
        rows = Replica.store_snapshot rep;
      }
  in
  Snapshot.write ~path:(Filename.concat ls.dir "r0.snap") s

(* One transaction, start to finish, in the order the backends perform
   it: Workload.next -> reads -> Protocol.start -> per replica validate
   and Protocol.handle -> per replica commit. *)
let lockstep_txn ls =
  let cluster = is_cluster ls.spec in
  let seq = ls.txns + 1 in
  ls.txns <- seq;
  ls.tr.txn_seq <- seq;
  let tid = Tid.make ~seq ~client_id:0 in
  span ls.tr "txn" ~args:[ ("tid", Tracer.Str (Tid.to_string tid)) ] (fun () ->
      let req = span ls.tr "workload.next" (fun () -> Workload.next ls.wl) in
      if Array.length req.Intf.reads > 0 then ls.reading <- ls.reading + 1;
      let read_entry key =
        if cluster then frame ls (Codec.Get { coord = 0; slot = 0; seq; key });
        match span ls.tr "replica.get" (fun () -> Replica.handle_get ls.replicas.(0) ~key) with
        | Some (value, wts) ->
            if cluster then
              frame ls (Codec.Get_reply { slot = 0; seq; replica = 0; key; value; wts });
            ({ key; wts } : Txn.read_entry)
        | None ->
            ls_fail ls "read of key %d refused" key;
            ({ key; wts = Timestamp.zero } : Txn.read_entry)
      in
      let read_set = List.map read_entry (Array.to_list req.Intf.reads) in
      let write_set =
        List.map
          (fun (key, value) -> ({ key; value } : Txn.write_entry))
          (Array.to_list req.Intf.writes)
      in
      let txn = Txn.make ~tid ~read_set ~write_set in
      let now = float_of_int seq in
      let ts = Timestamp.make ~time:now ~client_id:0 in
      ls.last <- Some (txn, ts);
      Batch.clear ls.acts;
      let proto =
        span ls.tr "protocol.start" (fun () -> Protocol.start ls.params ~now ~into:ls.acts)
      in
      (* Live: one mailbox message carries a round to every replica (a
         replica mask), so each round is one hop. *)
      let validate = Codec.Validate { coord = 0; slot = 0; seq; txn; ts } in
      if cluster then
        for _ = 1 to n_replicas do
          frame ~to_core:true ls validate
        done
      else mailbox_hop ls validate;
      let decision = ref None in
      for r = 0 to n_replicas - 1 do
        match
          span ls.tr "replica.validate" (fun () ->
              Replica.handle_validate ls.replicas.(r) ~core:0 ~txn ~ts)
        with
        | None -> ls_fail ls "replica %d refused to validate" r
        | Some status ->
            if cluster then frame ls (Codec.Validated { slot = 0; seq; replica = r; status });
            Batch.clear ls.acts;
            span ls.tr "protocol.handle" (fun () ->
                Protocol.handle proto ~now
                  (Protocol.Validate_reply { replica = r; status })
                  ~into:ls.acts);
            Batch.iter
              (function
                | Protocol.Note_decided { commit; _ } -> decision := Some commit
                | _ -> ())
              ls.acts
      done;
      if not cluster then
        mailbox_hop ls (Codec.Validated { slot = 0; seq; replica = 0; status = Txn.Validated_ok });
      match !decision with
      | None -> ls_fail ls "txn %d undecided after every validation reply" seq
      | Some commit ->
          let write_back = Codec.Write_back { txn; ts; commit } in
          if cluster then
            for _ = 1 to n_replicas do
              frame ~to_core:true ls write_back
            done
          else mailbox_hop ls write_back;
          for r = 0 to n_replicas - 1 do
            match
              span ls.tr "replica.commit" (fun () ->
                  Replica.handle_commit ls.replicas.(r) ~core:0 ~txn ~ts ~commit)
            with
            | Some () -> ()
            | None -> ls_fail ls "replica %d refused the commit" r
          done;
          if commit then ls.history <- (txn, ts) :: ls.history;
          if is_durable ls.spec && seq mod snapshot_every = 0 then
            span ls.tr "snapshot.write" (fun () -> write_snapshot ls))

(* Run [count] transactions, or, when [count] is [None], as many as fit
   in [budget_s] — at least 200, at most 4,000 (which bounds the trace's
   memory and file size, ~35 MB); returns the loop's wall time. *)
let lockstep_pass ls ~count ~budget_s =
  let t0 = now_s () in
  (match count with
  | Some n ->
      for _ = 1 to n do
        lockstep_txn ls
      done
  | None ->
      while ls.txns < 200 || (now_s () -. t0 < budget_s && ls.txns < 4_000) do
        lockstep_txn ls
      done);
  now_s () -. t0

let with_dir dir f =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- ping-pongs ----------------------------------------------------- *)

(* Push to a consumer parked in [Mailbox.pop] on the other domain and
   time until its [pop] returns; the producer sleeps between rounds so
   the consumer has finished spinning and parked. Median, µs. *)
let mailbox_wake_us ~rounds =
  let req : float Mailbox.t = Mailbox.create ~capacity:2 in
  let rsp : float Mailbox.t = Mailbox.create ~capacity:2 in
  let consumer =
    Spawn.spawn (fun () ->
        let rec loop () =
          let sent = Mailbox.pop req in
          if sent >= 0.0 then begin
            Mailbox.push rsp (now_ns () -. sent);
            loop ()
          end
        in
        loop ())
  in
  let samples =
    List.init rounds (fun _ ->
        Unix.sleepf 0.001;
        Mailbox.push req (now_ns ());
        Mailbox.pop rsp)
  in
  Mailbox.push req (-1.0);
  Spawn.join consumer;
  median samples /. 1e3

(* Two poll-mode shims on loopback: one Validate frame out, one
   Validated back. Median, µs. *)
let shim_rtt_us ~rounds (txn, ts) =
  let bind () =
    match Net.bind () with Ok n -> n | Error e -> failwith ("rtt socket: " ^ e)
  in
  let a = bind () in
  Fun.protect
    ~finally:(fun () -> Net.stop a)
    (fun () ->
      let b = bind () in
      Fun.protect
        ~finally:(fun () -> Net.stop b)
        (fun () ->
          let b_addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Net.port b) in
          let request = (0, Codec.Validate { coord = 0; slot = 0; seq = 1; txn; ts }) in
          let reply =
            (0, Codec.Validated { slot = 0; seq = 1; replica = 0; status = Txn.Validated_ok })
          in
          let got = ref false in
          let deliver_a ~src:_ _ = got := true in
          let deliver_b ~src _ = Net.send b ~dst:src reply in
          let samples = ref [] in
          for _ = 1 to rounds do
            got := false;
            let t0 = now_ns () in
            Net.send a ~dst:b_addr request;
            let deadline = t0 +. 1e8 in
            while (not !got) && now_ns () < deadline do
              ignore (Net.poll a ~deliver:deliver_a : int);
              ignore (Net.poll b ~deliver:deliver_b : int)
            done;
            if !got then samples := (now_ns () -. t0) :: !samples
          done;
          if !samples = [] then failwith "shim ping-pong: every frame lost";
          median !samples /. 1e3))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

(* The CPU-path operations whose self time x calls per transaction make
   up the ledger. Wait-dominated timings (mailbox wake, shim round
   trip, fsync, snapshot write) are reported beside it, not in it. *)
let ledger_ops =
  [
    "workload.next"; "protocol.start"; "protocol.handle"; "replica.validate";
    "replica.commit"; "replica.get"; "mailbox.push_drain"; "codec.encode";
    "codec.decode"; "walcodec.encode"; "wal.append";
  ]

let layer_metrics spec ~segs ~ls ~overhead ~wake_us ~rtt_us =
  let committed = isum (fun s -> s.committed) segs in
  let ls_committed = max 1 (List.length ls.history) in
  let per_ls_txn n = float_of_int n /. float_of_int ls_committed in
  let mean_ns name =
    match Hashtbl.find_opt ls.tr.accs name with
    | Some a when a.calls > 0 -> a.self_ns /. float_of_int a.calls
    | _ -> 0.0
  in
  let calls name =
    match Hashtbl.find_opt ls.tr.accs name with
    | Some a -> per_ls_txn a.calls
    | None -> 0.0
  in
  let timed name =
    [ m (name ^ "_ns") "ns" (mean_ns name); m (name ^ "_calls") "count" (calls name) ]
  in
  let counted f = per_txn (float_of_int (isum f segs)) committed in
  let live = not (is_cluster spec) in
  let explained =
    List.fold_left (fun acc op -> acc +. (mean_ns op *. calls op)) 0.0 ledger_ops
    /. (cpu_us_per_txn segs *. 1e3)
  in
  let fast = isum (fun s -> s.fast) segs and slow = isum (fun s -> s.slow) segs in
  List.concat
    [
      timed "workload.next";
      timed "protocol.start";
      timed "protocol.handle";
      [
        m "protocol.fast_frac" "ratio" (float_of_int fast /. float_of_int (max 1 (fast + slow)));
        m "protocol.retransmits_per_ktxn" "count" (1e3 *. counted (fun s -> s.retransmits));
      ];
      timed "replica.validate";
      timed "replica.commit";
      timed "replica.get";
      timed "mailbox.push_drain";
      [
        m "mailbox.wake_us" "us" wake_us;
        (* Pushes that can find a consumer parked in [Mailbox.pop]: on
           live, the validation request and the write-back to the
           server domain; nothing on the cluster parks (node cores poll
           their inboxes and doze). *)
        m "mailbox.wake_calls" "count" (if live then 2.0 else 0.0);
      ];
      timed "codec.encode";
      timed "codec.decode";
      [
        m "wire.frames_per_txn" "count" (counted (fun s -> s.frames));
        m "wire.bytes_per_txn" "B" (counted (fun s -> s.bytes));
        m "shim.rtt_us" "us" rtt_us;
        (* Sequential client round trips: the execute phase (when the
           transaction reads) and the validation round. *)
        m "shim.rtt_calls" "count" (if live then 0.0 else per_ls_txn ls.reading +. 1.0);
      ];
      timed "walcodec.encode";
      timed "wal.append";
      [
        m "wal.fsync_us" "us" (mean_ns "wal.fsync" /. 1e3);
        m "wal.fsync_calls" "count" (calls "wal.fsync");
        m "snapshot.write_us" "us" (mean_ns "snapshot.write" /. 1e3);
        (* The node checkpoints on a timer, so the rate comes from the
           end-to-end run, not from the lockstep cadence. *)
        m "snapshot.write_calls" "count" (counted (fun s -> s.snapshots));
        m "wal.appends_per_txn" "count" (counted (fun s -> s.wal_appends));
        m "wal.fsyncs_per_txn" "count" (counted (fun s -> s.wal_fsyncs));
        m "snapshot.count_per_ktxn" "count" (1e3 *. counted (fun s -> s.snapshots));
        m "gc.majors_per_ktxn" "count" (1e3 *. counted (fun s -> s.majors));
        m "ledger.explained_frac" "ratio" explained;
        m "trace.overhead_frac" "ratio" overhead;
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.m_name x.value
              x.unit_)
          metrics))

let write_file path s =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s)

(* The traced run: a short end-to-end run for the counted metrics and
   the CPU the ledger reconciles against, the lockstep replay traced and
   untraced, and the ping-pongs. *)
let traced_run spec ~seed ~seconds ~tiny ~run_segments ~work_dir =
  let segs = run_segments ~count:2 ~share:0.5 in
  let ls_dir = Filename.concat work_dir (Printf.sprintf "lockstep-%d" (Unix.getpid ())) in
  let budget_s = if tiny then 0.05 else seconds *. 0.1 in
  let pass ~on ~count =
    with_dir ls_dir (fun dir ->
        let ls = new_lockstep spec ~seed ~on ~dir in
        let wall =
          Fun.protect
            ~finally:(fun () -> close_lockstep ls)
            (fun () -> lockstep_pass ls ~count ~budget_s)
        in
        (ls, wall))
  in
  let traced, traced_s = pass ~on:true ~count:None in
  let _, untraced_s = pass ~on:false ~count:(Some traced.txns) in
  let trace_path = Filename.concat work_dir ("trace-" ^ spec.name ^ ".json") in
  Export.write_chrome_trace traced.tr.tracer ~path:trace_path;
  log "lockstep: %d txns, traced %.3f s, untraced %.3f s; chrome trace %s" traced.txns
    traced_s untraced_s trace_path;
  let rounds = if tiny then 20 else 300 in
  let wake_us = mailbox_wake_us ~rounds in
  let rtt_us =
    match traced.last with
    | Some last when is_cluster spec -> shim_rtt_us ~rounds:(rounds * 5) last
    | _ -> 0.0
  in
  let failures =
    traced.ls_failures
    @
    match Checker.check traced.history with
    | Ok () -> []
    | Error v -> [ Format.asprintf "lockstep history: %a" Checker.pp_violation v ]
  in
  ( segs,
    traced.txns,
    failures,
    layer_metrics spec ~segs ~ls:traced
      ~overhead:((traced_s /. untraced_s) -. 1.0)
      ~wake_us ~rtt_us )

let main ~workload ~seed ~seconds ~trace ~node_exe ~work_dir ~commit ~tiny =
  let spec =
    match List.find_opt (fun s -> s.name = workload) specs with
    | Some s -> s
    | None ->
        failwith
          (Printf.sprintf "unknown workload %S (one of: %s)" workload
             (String.concat ", " (List.map (fun s -> s.name) specs)))
  in
  if is_cluster spec && not (Sys.file_exists node_exe) then
    failwith (Printf.sprintf "node binary %s not found" node_exe);
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let record =
    Printf.sprintf
      "{\"workload\": \"%s\", \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
       \"tiny\": %b, \"nproc\": %d, \"ocaml\": \"%s\", \"commit\": \"%s\", \
       \"params\": %s}"
      spec.name seed seconds trace tiny
      (Domain.recommended_domain_count ())
      Sys.ocaml_version commit (spec_json spec)
  in
  log "run %s" record;
  write_file (Filename.concat work_dir ("record-" ^ spec.name ^ ".json")) (record ^ "\n");
  (* Segment 0 is a short warm-up: checked, but left out of the
     metrics. *)
  let warmup =
    run_segment spec ~seed:(segment_seed ~seed 0)
      ~seconds:(Float.min 0.5 (seconds /. 10.0))
      ~node_exe ~work_dir ~seg_id:0
  in
  let run_segments ~count ~share =
    List.init count (fun k ->
        run_segment spec ~seed:(segment_seed ~seed (k + 1))
          ~seconds:(seconds *. share /. float_of_int count)
          ~node_exe ~work_dir ~seg_id:(k + 1))
  in
  let segs, ls_txns, ls_failures, metrics =
    if trace then traced_run spec ~seed ~seconds ~tiny ~run_segments ~work_dir
    else
      let segs = run_segments ~count:(if tiny then 2 else segments) ~share:1.0 in
      (segs, 0, [], e2e_metrics segs)
  in
  let segs = warmup :: segs in
  let failures = List.concat_map (fun s -> s.failures) segs @ ls_failures in
  List.iter (fun f -> log "FAILED: %s" f) failures;
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then
        failwith (Printf.sprintf "metric %s is not finite" x.m_name))
    metrics;
  let attempted = isum (fun s -> s.submitted) segs + ls_txns in
  let failed =
    if failures <> [] then attempted
    else isum (fun s -> s.submitted - s.committed - s.aborted) segs
  in
  print_endline (result_json ~correct:(failures = []) ~attempted ~failed metrics);
  if failures <> [] then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let node_exe = ref "_build/default/bin/meerkat_node.exe" in
  let work_dir = ref ".perfbench" and commit = ref "unknown" and tiny = ref false in
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the four workloads");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--node-exe", Arg.Set_string node_exe, "PATH meerkat_node binary for the cluster workloads");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory: data dirs, traces, run records");
      ("--commit", Arg.Set_string commit, "SHA source revision, kept in the run record");
      ("--tiny", Arg.Set tiny, " smoke-test size");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (!trace <> 0 && !trace <> 1) || not (!seconds > 0.0) then begin
    prerr_endline usage;
    exit 2
  end;
  match
    main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~node_exe:!node_exe ~work_dir:!work_dir ~commit:!commit ~tiny:!tiny
  with
  | () -> ()
  | exception e ->
      log "error: %s" (Printexc.to_string e);
      exit 2
