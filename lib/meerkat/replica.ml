module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn
module Vstore = Mk_storage.Vstore
module Trecord = Mk_storage.Trecord
module Occ = Mk_storage.Occ
module Owner = Mk_check.Owner

type record_view = {
  txn : Txn.t;
  ts : Timestamp.t;
  status : Txn.status;
  view : int;
  accept_view : int option;
}

type store_row = { key : int; value : int; wts : Timestamp.t; rts : Timestamp.t }

type durable_event =
  | Finalized of { core : int; view : record_view }
  | Installed of { epoch : int }

(* Statistic counters are per-core rows in a flat array, one cache
   line apart, because in the live runtime each core's handlers run on
   a distinct domain: a shared mutable int would be a data race (and a
   contended line) there. Each core writes only its own row — the same
   data-access parallelism the trecord partitions follow — so plain
   ints suffice without atomics; the summed totals are exact once the
   system is quiescent. *)
let stat_stride = 8 (* ints per row = 64 bytes *)
let stat_ok = 0
let stat_abort = 1
let stat_committed = 2
let stat_aborted = 3

type t = {
  id : int;
  quorum : Quorum.t;
  ncores : int;
  mutable vstore : Vstore.t;
  mutable trecord : Trecord.t;
  mutable epoch : int;
  mutable installed_epoch : int;
      (** Highest epoch whose epoch-change-complete has been applied;
          retransmitted completes for it are acknowledged without
          re-installing (a re-install would erase records of
          transactions that finished after the first install). *)
  mutable paused : bool;
  mutable crashed : bool;
  mutable recovering : bool;
      (** Rebuilding after a crash: only an epoch install may unpause
          it, never {!resume}. *)
  stats : int array;
  mutable durable_hook : (durable_event -> unit) option;
      (** [None] until {!set_durable_hook}: a replica without one
          builds no event at all. Called with the same core-affinity
          as the handler that fired it: [Finalized {core; _}] only
          from core [core]'s handlers,
          [Installed _] only from the (paused) epoch-change driver —
          so a per-core WAL behind it has a single writer. *)
}

let bump t ~core stat =
  let i = (core * stat_stride) + stat in
  t.stats.(i) <- t.stats.(i) + 1

let stat_sum t stat =
  let acc = ref 0 in
  for core = 0 to t.ncores - 1 do
    acc := !acc + t.stats.((core * stat_stride) + stat)
  done;
  !acc

let create ~id ~quorum ~cores =
  {
    id;
    quorum;
    ncores = cores;
    vstore = Vstore.create ();
    trecord = Trecord.create ~cores;
    epoch = 0;
    installed_epoch = 0;
    paused = false;
    crashed = false;
    recovering = false;
    stats = Array.make (cores * stat_stride) 0;
    durable_hook = None;
  }

let set_durable_hook t f = t.durable_hook <- Some f

let id t = t.id
let cores t = t.ncores
let quorum t = t.quorum
let vstore t = t.vstore
let trecord t = t.trecord
let epoch t = t.epoch
let is_available t = (not t.crashed) && not t.paused
let load t ~key ~value = Vstore.load t.vstore ~key ~value
let publish t = Vstore.publish t.vstore

let crash t =
  t.crashed <- true;
  (* Fail-stop without stable storage: all state is gone (§5.3.1). *)
  t.vstore <- Vstore.create ();
  t.trecord <- Trecord.create ~cores:t.ncores

let is_crashed t = t.crashed
let is_paused t = t.paused

let begin_recovery t =
  t.crashed <- false;
  t.recovering <- true;
  t.paused <- true

let view_of_entry (e : Trecord.entry) =
  { txn = e.txn; ts = e.ts; status = e.status; view = e.view; accept_view = e.accept_view }

let entry_of_view (v : record_view) : Trecord.entry =
  { txn = v.txn; ts = v.ts; status = v.status; view = v.view; accept_view = v.accept_view }

(* Guard: handlers answer only when the replica is up; a paused
   replica still answers reads and write-phase messages (the paper
   pauses only the *validation* of new transactions during an epoch
   change), but nothing is answered after a crash. *)

let handle_get t ~key =
  if t.crashed || t.paused then None
  else begin
    match Vstore.find t.vstore key with
    | Some e -> Some (Vstore.read_versioned e)
    | None -> Some (0, Timestamp.zero)
  end

(* Z7 (allowlisted): [i] runs over [0, n) of two [n]-element arrays,
   checked on entry. *)
let read_into t src ~key ~values ~wts =
  let n = Array.length values in
  if not (Int.equal (Array.length wts) n) then
    invalid_arg "Replica.read_into: arrays of different lengths";
  if t.crashed || t.paused then false
  else begin
    for i = 0 to n - 1 do
      let e = Vstore.lookup t.vstore (key src i) in
      if e == Vstore.absent then begin
        values.(i) <- 0;
        wts.(i) <- Timestamp.zero
      end
      else begin
        (* Field reads raise nothing: no exception path to unlock. *)
        Vstore.lock e;
        values.(i) <- e.value;
        wts.(i) <- e.wts;
        Vstore.unlock e
      end
    done;
    true
  end

(* The per-core handlers run with [core] as the ambient actor
   ([Owner.enter_core]/[leave_core], {!Mk_check.Owner.with_core}
   without its closure): when the dynamic checker is on, any touch of
   a foreign trecord partition inside the handler body raises instead
   of silently breaking DAP. *)

let validate_record t ~core ~txn ~ts =
  match Trecord.find t.trecord ~core txn.Txn.tid with
  | Some entry -> entry.status
  | None ->
      let status =
        match Occ.validate t.vstore txn ~ts with
        | `Ok ->
            bump t ~core stat_ok;
            Txn.Validated_ok
        | `Abort ->
            bump t ~core stat_abort;
            Txn.Validated_abort
      in
      let (_ : Trecord.entry) = Trecord.add t.trecord ~core ~txn ~ts ~status in
      status

let handle_validate t ~core ~txn ~ts =
  if t.crashed || t.paused then None
  else begin
    let actor = Owner.enter_core core in
    match validate_record t ~core ~txn ~ts with
    | status ->
        Owner.leave_core actor;
        Some status
    | exception e ->
        Owner.leave_core actor;
        raise e
  end

let handle_accept t ~core ~txn ~ts ~decision ~view =
  if t.crashed then None
  else
    Owner.with_core core (fun () ->
    let entry =
      match Trecord.find t.trecord ~core txn.Txn.tid with
      | Some e -> e
      | None ->
          (* This replica missed the validate message: record the
             proposal anyway — consensus is on the outcome, not on
             having validated. *)
          Trecord.add t.trecord ~core ~txn ~ts ~status:Txn.Validated_abort
    in
    if Txn.is_final entry.status then Some (`Finalized entry.status)
    else if view < entry.view then Some (`Stale entry.view)
    else begin
      entry.view <- view;
      entry.accept_view <- Some view;
      entry.status <-
        (match decision with
        | `Commit -> Txn.Accepted_commit
        | `Abort -> Txn.Accepted_abort);
      Some `Accepted
    end)

let finalize_entry t ~core (entry : Trecord.entry) ~commit =
  entry.status <- (if commit then Txn.Committed else Txn.Aborted);
  if commit then begin
    bump t ~core stat_committed;
    Occ.finish t.vstore entry.txn ~ts:entry.ts ~commit:true
  end
  else begin
    bump t ~core stat_aborted;
    (* Removing pending marks that were never added is a no-op, so we
       need not track whether this replica's validation succeeded. *)
    Occ.abort_pending t.vstore entry.txn ~ts:entry.ts
  end;
  match t.durable_hook with
  | Some hook -> hook (Finalized { core; view = view_of_entry entry })
  | None -> ()

(* A retransmitted write-back finds its record final already. *)
let commit_entry t ~core (entry : Trecord.entry) ~commit =
  if not (Txn.is_final entry.status) then finalize_entry t ~core entry ~commit

let handle_commit t ~core ~txn ~ts ~commit =
  if t.crashed then None
  else begin
    let actor = Owner.enter_core core in
    match
      let entry =
        match Trecord.find t.trecord ~core txn.Txn.tid with
        | Some e -> e
        | None -> Trecord.add t.trecord ~core ~txn ~ts ~status:Txn.Validated_abort
      in
      commit_entry t ~core entry ~commit
    with
    | () ->
        Owner.leave_core actor;
        Some ()
    | exception e ->
        Owner.leave_core actor;
        raise e
  end

let handle_commit_held t ~core ~tid ~commit =
  if t.crashed then true
  else begin
    let actor = Owner.enter_core core in
    match
      match Trecord.find t.trecord ~core tid with
      | Some entry ->
          commit_entry t ~core entry ~commit;
          true
      | None -> false
    with
    | held ->
        Owner.leave_core actor;
        held
    | exception e ->
        Owner.leave_core actor;
        raise e
  end

let handle_coord_change t ~core ~tid ~view =
  if t.crashed then None
  else
    Owner.with_core core (fun () ->
        match Trecord.find t.trecord ~core tid with
        | None -> Some (`View_ok None)
        | Some entry ->
            if view <= entry.view && entry.view > 0 then Some (`Stale entry.view)
            else begin
              entry.view <- view;
              Some (`View_ok (Some (view_of_entry entry)))
            end)

(* Install state-transfer rows: one bulk path, so the key index is
   published once, after the last row. *)
let set_rows store rows =
  List.iter
    (fun { key; value; wts; rts } -> Vstore.set_version store ~key ~value ~wts ~rts)
    rows;
  Vstore.publish store

let handle_epoch_change t ~epoch =
  if t.crashed then None
  else if epoch <= t.epoch then None
  else begin
    t.epoch <- epoch;
    t.paused <- true;
    Some (List.map (fun (_, e) -> view_of_entry e) (Trecord.entries t.trecord))
  end

let handle_epoch_complete t ~epoch ~records ~store =
  if t.crashed then None
  else if epoch <= t.installed_epoch then
    (* Duplicate or stale: acknowledge so the recovery coordinator
       stops retransmitting, but do NOT re-install — the merged record
       predates transactions that may have finished since. *)
    Some ()
  else if epoch < t.epoch then None
  else begin
    t.epoch <- epoch;
    t.installed_epoch <- epoch;
    (match store with
    | None -> ()
    | Some rows ->
        let fresh = Vstore.create () in
        set_rows fresh rows;
        t.vstore <- fresh);
    (* Adopt the merged trecord. Every entry in it is final
       (COMMITTED/ABORTED) by construction of the merge (§5.3.1); we
       re-apply committed writes, which the Thomas write rule makes
       idempotent, so replicas that already executed them converge
       with ones that did not. *)
    Vstore.clear_pending t.vstore;
    let pairs = List.map (fun (core, v) -> (core, entry_of_view v)) records in
    let merged = Trecord.create ~cores:t.ncores in
    Trecord.replace_all merged pairs;
    t.trecord <- merged;
    List.iter
      (fun (_, (e : Trecord.entry)) ->
        match e.status with
        | Txn.Committed -> Occ.finish t.vstore e.txn ~ts:e.ts ~commit:true
        | Txn.Aborted -> Occ.abort_pending t.vstore e.txn ~ts:e.ts
        | Txn.Validated_ok | Txn.Validated_abort | Txn.Accepted_commit
        | Txn.Accepted_abort ->
            (* The merge never emits non-final records. *)
            assert false)
      (Trecord.entries merged);
    t.paused <- false;
    t.recovering <- false;
    (match t.durable_hook with
    | Some hook -> hook (Installed { epoch })
    | None -> ());
    Some ()
  end

(* An abandoned epoch change leaves the trecord as it was — non-final
   records included, which an install would reject — and installs
   nothing, so neither the installed-epoch watermark nor the durable
   hook moves. *)
let resume t ~epoch =
  if t.crashed || t.recovering || epoch <> t.epoch then None
  else begin
    t.paused <- false;
    Some ()
  end

(* Reboot-time restore from stable storage. Unlike
   [handle_epoch_complete] this must work at any epoch (including 0,
   which the install dedup above would silently ack), must tolerate
   non-final record views (a WAL can legitimately persist accepted
   slow-path state), and must leave the pause/crash flags alone — the
   caller decides when the replica may process again (a rebooted node
   stays paused until the §5.3.1 merge reintegrates it). *)
let restore t ~epoch ~records ~rows =
  t.epoch <- max t.epoch epoch;
  t.installed_epoch <- max t.installed_epoch epoch;
  set_rows t.vstore rows;
  Vstore.clear_pending t.vstore;
  let pairs = List.map (fun (core, v) -> (core, entry_of_view v)) records in
  Trecord.replace_all t.trecord pairs;
  (* Re-apply committed writes (Thomas write rule makes this
     idempotent, so restore-twice equals restore-once); in-flight
     validation state is gone with the crash, which is safe — the
     coordinator's retransmission re-validates. *)
  List.iter
    (fun ((_, v) : int * record_view) ->
      match v.status with
      | Txn.Committed -> Occ.finish t.vstore v.txn ~ts:v.ts ~commit:true
      | Txn.Aborted -> Occ.abort_pending t.vstore v.txn ~ts:v.ts
      | Txn.Validated_ok | Txn.Validated_abort | Txn.Accepted_commit
      | Txn.Accepted_abort ->
          ())
    records

let store_snapshot t =
  let acc = ref [] in
  Vstore.iter t.vstore (fun e ->
      let { Vstore.key; value; wts; rts; _ } = e in
      acc := { key; value; wts; rts } :: !acc);
  !acc

let record_views t =
  List.map (fun (core, e) -> (core, view_of_entry e)) (Trecord.entries t.trecord)

let core_record_views t ~core =
  List.map (fun e -> (core, view_of_entry e)) (Trecord.core_entries t.trecord ~core)

let trim_record t ~before = Trecord.trim_finalized t.trecord ~before

let validations_ok t = stat_sum t stat_ok
let validations_abort t = stat_sum t stat_abort
let committed t = stat_sum t stat_committed
let aborted t = stat_sum t stat_aborted
