module Tid = Mk_clock.Timestamp.Tid
module Owner = Mk_check.Owner

type entry = {
  txn : Txn.t;
  mutable ts : Mk_clock.Timestamp.t;
  mutable status : Txn.status;
  mutable view : int;
  mutable accept_view : int option;
}

(* [pending.(c)] holds every entry of partition [c] added since it was
   last seen final — a superset of the partition's non-final entries,
   so [core_pending] costs O(recent + non-final) rather than a walk of
   the whole untrimmed partition. Final entries are dropped lazily:
   by [core_pending], and by [add] whenever the table has doubled since
   the last prune ([prune_at]), which keeps it proportional to the
   non-final set on backends that never ask. *)
type t = {
  partitions : entry Tid.Table.t array;
  pending : entry Tid.Table.t array;
  prune_at : int array;
}

let min_prune = 1024

let create ~cores =
  if cores <= 0 then invalid_arg "Trecord.create: cores must be positive";
  {
    partitions = Array.init cores (fun _ -> Tid.Table.create 256);
    pending = Array.init cores (fun _ -> Tid.Table.create 256);
    prune_at = Array.make cores min_prune;
  }

let cores t = Array.length t.partitions

let partition_of_tid t tid = Tid.hash tid mod Array.length t.partitions

let check_core t core =
  if core < 0 || core >= Array.length t.partitions then
    invalid_arg (Printf.sprintf "Trecord: core %d out of range" core)

(* Partition ownership (ZCP): each partition belongs to one core;
   normal-case operations assert the ambient actor set by the replica
   handlers matches. Whole-record maintenance ([entries],
   [replace_all], [trim_finalized]) runs outside any actor scope
   during epoch changes and is exempt by construction. *)

let find t ~core tid =
  check_core t core;
  Owner.check_partition ~core ~what:"find";
  Tid.Table.find_opt t.partitions.(core) tid

let prune t core =
  let p = t.pending.(core) in
  Tid.Table.filter_map_inplace
    (fun _ e -> if Txn.is_final e.status then None else Some e)
    p;
  t.prune_at.(core) <- max min_prune (2 * Tid.Table.length p)

let add t ~core ~txn ~ts ~status =
  check_core t core;
  Owner.check_partition ~core ~what:"add";
  let entry = { txn; ts; status; view = 0; accept_view = None } in
  Tid.Table.replace t.partitions.(core) txn.Txn.tid entry;
  let p = t.pending.(core) in
  Tid.Table.replace p txn.Txn.tid entry;
  if Tid.Table.length p > t.prune_at.(core) then prune t core;
  entry

let remove t ~core tid =
  check_core t core;
  Owner.check_partition ~core ~what:"remove";
  Tid.Table.remove t.partitions.(core) tid;
  Tid.Table.remove t.pending.(core) tid

let size t = Array.fold_left (fun acc p -> acc + Tid.Table.length p) 0 t.partitions

let entries t =
  let acc = ref [] in
  Array.iteri
    (fun core p -> Tid.Table.iter (fun _ e -> acc := (core, e) :: !acc) p)
    t.partitions;
  !acc

let core_entries t ~core =
  check_core t core;
  Tid.Table.fold (fun _ e acc -> e :: acc) t.partitions.(core) []

let core_pending t ~core =
  check_core t core;
  prune t core;
  Tid.Table.fold
    (fun _ e acc -> { e with ts = e.ts } :: acc)
    t.pending.(core) []

let replace_all t pairs =
  Array.iter Tid.Table.reset t.partitions;
  Array.iter Tid.Table.reset t.pending;
  List.iter
    (fun (core, e) ->
      check_core t core;
      Tid.Table.replace t.partitions.(core) e.txn.Txn.tid e;
      if not (Txn.is_final e.status) then
        Tid.Table.replace t.pending.(core) e.txn.Txn.tid e)
    pairs

let trim_finalized t ~before =
  let removed = ref 0 in
  Array.iter
    (fun p ->
      let victims =
        Tid.Table.fold
          (fun tid e acc ->
            if Txn.is_final e.status && Mk_clock.Timestamp.compare e.ts before < 0
            then tid :: acc
            else acc)
          p []
      in
      List.iter
        (fun tid ->
          Tid.Table.remove p tid;
          incr removed)
        victims)
    t.partitions;
  !removed

let count_status t status =
  List.length (List.filter (fun (_, e) -> e.status = status) (entries t))
