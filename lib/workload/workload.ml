module Intf = Mk_model.System_intf
module Rng = Mk_util.Rng

type shape = { label : string; weight : float; gets : Rng.t -> int; puts : int }
type locality = { shards : int; cross : float }

type t = {
  name : string;
  rng : Rng.t;
  zipf : Zipf.t;
  shapes : shape array;
  cumulative : float array;
  counts : int array;
  rmw : bool;  (** Read-modify-write: read set = write set (YCSB-T). *)
  mutable locality : locality option;
  mutable next_value : int;
}

let name t = t.name
let keys t = Zipf.n t.zipf

let make ?(rmw = false) ?locality ~name ~rng ~keys ~theta shapes =
  (match locality with
  | Some { shards; cross } ->
      if shards < 1 then
        invalid_arg "Workload.make: locality shards must be >= 1";
      if keys < shards then
        invalid_arg "Workload.make: locality needs keys >= shards";
      if cross < 0.0 || cross > 1.0 then
        invalid_arg "Workload.make: locality cross must be in [0, 1]"
  | None -> ());
  let shapes = Array.of_list shapes in
  let total = Array.fold_left (fun acc s -> acc +. s.weight) 0.0 shapes in
  let acc = ref 0.0 in
  let cumulative =
    Array.map
      (fun s ->
        acc := !acc +. (s.weight /. total);
        !acc)
      shapes
  in
  {
    name;
    rng;
    zipf = Zipf.create ~rng ~n:keys ~theta ();
    shapes;
    cumulative;
    counts = Array.make (Array.length shapes) 0;
    rmw;
    locality;
    next_value = 1;
  }

(* Plain loops, not closures: [next] runs once per transaction on
   every backend's client path, and a closure or an [Array.exists]
   callback per draw is most of what it would otherwise allocate. *)
let pick_shape t =
  let u = Rng.uniform t.rng in
  let last = Array.length t.cumulative - 1 in
  let i = ref 0 in
  while !i < last && not (u < t.cumulative.(!i)) do
    incr i
  done;
  !i

(* Draw [count] distinct keys; resampling terminates because workloads
   always use far fewer keys per transaction than the keyspace holds.
   A duplicate is redrawn in place: one sample per attempt, so the
   stream of draws does not depend on how duplicates are found. *)
let distinct_keys t count =
  let chosen = Array.make count (-1) in
  let i = ref 0 in
  while !i < count do
    let key = Zipf.sample t.zipf in
    let j = ref 0 in
    while !j < !i && chosen.(!j) <> key do
      incr j
    done;
    if !j = !i then begin
      chosen.(!i) <- key;
      incr i
    end
  done;
  chosen

(* [(keys.(from + i), value + i)] for [i < count]: the write set. *)
let writes_of keys ~from ~count ~value =
  if count = 0 then [||]
  else begin
    let w = Array.make count (keys.(from), value) in
    for i = 1 to count - 1 do
      w.(i) <- (keys.(from + i), value + i)
    done;
    w
  end

(* --- Shard locality (the cross-shard knob, DESIGN.md §13). ---

   The knob assumes the router's default Mod placement (shard of key k
   = k mod shards); keys are remapped AFTER Zipf sampling, so the
   popularity skew survives: confining key k to shard h replaces k by
   the nearest key of shard h in the same mod-block, which has the
   same Zipf rank up to one block. *)

(* The key of shard [home] closest to [key], always in [0, nkeys). *)
let confine ~nkeys ~shards ~home key =
  let base = key - (key mod shards) + home in
  let k = if base >= nkeys then base - shards else base in
  if k < 0 || k >= nkeys then home mod nkeys else k

(* Restore pairwise distinctness after confinement, stepping by whole
   blocks so a bumped key never leaves its shard. The guard only
   matters in degenerate keyspaces smaller than the transaction. *)
let make_distinct ~nkeys ~shards keys =
  let n = Array.length keys in
  for i = 1 to n - 1 do
    let rec bump k guard =
      let dup = ref false in
      for j = 0 to i - 1 do
        if keys.(j) = k then dup := true
      done;
      if !dup && guard <= nkeys then
        bump (if k + shards < nkeys then k + shards else k mod shards) (guard + 1)
      else k
    in
    keys.(i) <- bump keys.(i) 0
  done

let localize t keys =
  (match t.locality with
  | None -> ()
  | Some { shards; cross } ->
      let n = Array.length keys in
      if n > 0 && shards > 1 then begin
        let nkeys = Zipf.n t.zipf in
        let shard_of k = k mod shards in
        if n > 1 && Rng.uniform t.rng < cross then begin
          (* Spanning transaction: if every sampled key landed in one
             shard, push the second key into the next shard over. *)
          let home = shard_of keys.(0) in
          if Array.for_all (fun k -> shard_of k = home) keys then
            keys.(1) <-
              confine ~nkeys ~shards ~home:((home + 1) mod shards) keys.(1)
        end
        else begin
          (* Local transaction: confine everything to the home shard
             of the first (Zipf-hottest draw) key. *)
          let home = shard_of keys.(0) in
          for i = 1 to n - 1 do
            keys.(i) <- confine ~nkeys ~shards ~home keys.(i)
          done
        end;
        make_distinct ~nkeys ~shards keys
      end);
  keys

let spans ~shards (req : Intf.txn_request) =
  let shard_set = Hashtbl.create 4 in
  Array.iter (fun k -> Hashtbl.replace shard_set (k mod shards) ()) req.Intf.reads;
  Array.iter
    (fun (k, _) -> Hashtbl.replace shard_set (k mod shards) ())
    req.Intf.writes;
  Hashtbl.length shard_set > 1

let next t =
  let idx = pick_shape t in
  let shape = t.shapes.(idx) in
  t.counts.(idx) <- t.counts.(idx) + 1;
  let ngets = shape.gets t.rng in
  let value = t.next_value in
  if t.rmw then begin
    (* Read-modify-write every key of the transaction. *)
    let keys = localize t (distinct_keys t ngets) in
    t.next_value <- value + ngets;
    { Intf.reads = keys; writes = writes_of keys ~from:0 ~count:ngets ~value }
  end
  else begin
    let keys = localize t (distinct_keys t (ngets + shape.puts)) in
    let reads = Array.sub keys 0 ngets in
    t.next_value <- value + shape.puts;
    let writes = writes_of keys ~from:ngets ~count:shape.puts ~value in
    { Intf.reads; writes }
  end

let const n = fun (_ : Rng.t) -> n
let rand_range lo hi = fun rng -> lo + Rng.int rng (hi - lo + 1)

let set_locality t locality =
  (match locality with
  | Some { shards; cross } ->
      if shards < 1 then
        invalid_arg "Workload.set_locality: shards must be >= 1";
      if Zipf.n t.zipf < shards then
        invalid_arg "Workload.set_locality: needs keys >= shards";
      if cross < 0.0 || cross > 1.0 then
        invalid_arg "Workload.set_locality: cross must be in [0, 1]"
  | None -> ());
  t.locality <- locality

let ycsb_t ~rng ~keys ~theta =
  (* YCSB workload F, transactional: one read-modify-write — the read
     and the write hit the same key. *)
  make ~rmw:true ~name:"YCSB-T" ~rng ~keys ~theta
    [ { label = "RMW"; weight = 1.0; gets = const 1; puts = 0 } ]

let rmw_pair ~rng ~keys ~theta =
  (* Two-key read-modify-write: the smallest transaction that can
     genuinely span shards — the cross-shard benchmark workload. *)
  make ~rmw:true ~name:"RMW-2" ~rng ~keys ~theta
    [ { label = "RMW2"; weight = 1.0; gets = const 2; puts = 0 } ]

let retwis ~rng ~keys ~theta =
  make ~name:"Retwis" ~rng ~keys ~theta
    [
      { label = "Add User"; weight = 0.05; gets = const 1; puts = 3 };
      { label = "Follow/Unfollow"; weight = 0.15; gets = const 2; puts = 2 };
      { label = "Post Tweet"; weight = 0.30; gets = const 3; puts = 5 };
      { label = "Load Timeline"; weight = 0.50; gets = rand_range 1 10; puts = 0 };
    ]

let read_only ~rng ~keys ~theta ~nreads =
  make ~name:"read-only" ~rng ~keys ~theta
    [ { label = "read"; weight = 1.0; gets = const nreads; puts = 0 } ]

let write_only ~rng ~keys ~theta ~nwrites =
  make ~name:"write-only" ~rng ~keys ~theta
    [ { label = "write"; weight = 1.0; gets = const 0; puts = nwrites } ]

let mix_report t =
  Array.to_list (Array.mapi (fun i s -> (s.label, t.counts.(i))) t.shapes)
