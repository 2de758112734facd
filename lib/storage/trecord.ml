module Tid = Mk_clock.Timestamp.Tid
module Owner = Mk_check.Owner

type entry = {
  txn : Txn.t;
  mutable ts : Mk_clock.Timestamp.t;
  mutable status : Txn.status;
  mutable view : int;
  mutable accept_view : int option;
}

(* [pending.(c)] lists every entry added to partition [c] since it was
   last seen final — a superset of the partition's non-final entries,
   so [core_pending] costs O(recent + non-final) rather than a walk of
   the whole untrimmed partition. It is a growable array, not a second
   table: an add appends one slot, with no second hash-table cell to
   allocate, promote and remember. Entries that are final, or no
   longer the partition's record for their tid (removed or replaced),
   are dropped lazily: by [core_pending], and by [add] whenever the
   list has doubled since the last prune ([prune_at]), which keeps it
   proportional to the non-final set on backends that never ask. *)
type t = {
  partitions : entry Tid.Table.t array;
  pending : entry array array;  (** Slots [0, npending.(c)) are live. *)
  npending : int array;
  prune_at : int array;
}

let min_prune = 1024

(* Fills the pending lists' free slots, so they keep no dropped
   entry alive. *)
let vacant =
  {
    txn = Txn.make ~tid:(Tid.make ~seq:0 ~client_id:(-1)) ~read_set:[] ~write_set:[];
    ts = Mk_clock.Timestamp.zero;
    status = Txn.Aborted;
    view = 0;
    accept_view = None;
  }

let create ~cores =
  if cores <= 0 then invalid_arg "Trecord.create: cores must be positive";
  {
    partitions = Array.init cores (fun _ -> Tid.Table.create 256);
    pending = Array.init cores (fun _ -> Array.make 256 vacant);
    npending = Array.make cores 0;
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

let mem t ~core tid =
  check_core t core;
  Owner.check_partition ~core ~what:"mem";
  Tid.Table.mem t.partitions.(core) tid

let still_pending t core e =
  (not (Txn.is_final e.status))
  &&
  match Tid.Table.find t.partitions.(core) e.txn.Txn.tid with
  | current -> current == e
  | exception Not_found -> false

let prune t core =
  let p = t.pending.(core) and n = t.npending.(core) in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let e = p.(i) in
    if still_pending t core e then begin
      p.(!kept) <- e;
      incr kept
    end
  done;
  Array.fill p !kept (n - !kept) vacant;
  t.npending.(core) <- !kept;
  t.prune_at.(core) <- max min_prune (2 * !kept)

let push_pending t core e =
  let n = t.npending.(core) in
  if n = Array.length t.pending.(core) then begin
    let grown = Array.make (2 * n) vacant in
    Array.blit t.pending.(core) 0 grown 0 n;
    t.pending.(core) <- grown
  end;
  t.pending.(core).(n) <- e;
  t.npending.(core) <- n + 1

let add t ~core ~txn ~ts ~status =
  check_core t core;
  Owner.check_partition ~core ~what:"add";
  let entry = { txn; ts; status; view = 0; accept_view = None } in
  Tid.Table.replace t.partitions.(core) txn.Txn.tid entry;
  push_pending t core entry;
  if t.npending.(core) > t.prune_at.(core) then prune t core;
  entry

let remove t ~core tid =
  check_core t core;
  Owner.check_partition ~core ~what:"remove";
  Tid.Table.remove t.partitions.(core) tid

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
  let p = t.pending.(core) in
  let acc = ref [] in
  for i = 0 to t.npending.(core) - 1 do
    acc := { (p.(i)) with ts = p.(i).ts } :: !acc
  done;
  !acc

let replace_all t pairs =
  Array.iter Tid.Table.reset t.partitions;
  Array.iteri
    (fun core p ->
      Array.fill p 0 t.npending.(core) vacant;
      t.npending.(core) <- 0)
    t.pending;
  List.iter
    (fun (core, e) ->
      check_core t core;
      Tid.Table.replace t.partitions.(core) e.txn.Txn.tid e;
      if not (Txn.is_final e.status) then push_pending t core e)
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
