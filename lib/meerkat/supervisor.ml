(* The failure-handling control plane of one driver, as a pure state
   machine: the {!Detector} and the {!View_change} table behind one
   schedule. See the interface for what it owns; the comments here note
   why each step is shaped as it is. *)

module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid
module Txn = Mk_storage.Txn
module Trecord = Mk_storage.Trecord

type action =
  | Heartbeat of { from_ : int; dst : int; paused : bool }
  | Push_records
  | Coord_change of { replica : int; observer : int; tid : Tid.t; view : int }
  | Vc_accept of {
      replica : int;
      observer : int;
      txn : Txn.t;
      ts : Timestamp.t;
      decision : [ `Commit | `Abort ];
      view : int;
    }
  | Write_back of { observer : int; txn : Txn.t; ts : Timestamp.t; commit : bool }
  | Start_epoch_change of { recovering : int list }

type host = {
  up : int -> bool;
  paused : int -> bool;
  available : int -> bool;
  recoverable : now:float -> int -> bool;
}

type t = {
  cfg : Detector.cfg;
  n : int;
  cores : int;
  observers : int array;
  rto : float;
  host : host;
  det : Detector.t;
  vcs : View_change.t;
  latest : Trecord.entry list array;
      (* Each core's last answer, at [replica * cores + core]. *)
  next_scan : float array;  (* By observer slot. *)
  mutable next_hb : float;
  mutable next_push : float;
  mutable next_due : float;
      (* The earliest of the schedules above and the view changes' next
         retry: an idle [tick] reads this one field and returns. *)
  mutable scanning : bool;
  mutable view_changes : int;
  det_acts : Detector.action Batch.t;
  vc_acts : View_change.action Batch.t;
      (* Scratch batches, cleared on each use: the machine never
         reenters itself. *)
}

let create ~cfg ~n ~cores ~observers ~rto ~now host =
  let observers = Array.of_list observers in
  if Array.exists (fun o -> o < 0 || o >= n) observers then
    invalid_arg "Supervisor.create: observer out of range";
  let k = float_of_int (Array.length observers) in
  let scan_every = cfg.Detector.scan_every in
  {
    cfg;
    n;
    cores;
    observers;
    rto;
    host;
    det = Detector.create ~cfg ~n ~now;
    vcs = View_change.create ~n;
    latest = Array.make (n * cores) [];
    next_scan =
      Array.mapi
        (fun i _ -> now +. (scan_every /. 2.0) +. (float_of_int i *. scan_every /. k))
        observers;
    next_hb = now;
    next_push = now;
    next_due = now;
    scanning = true;
    view_changes = 0;
    det_acts = Batch.create ();
    vc_acts = Batch.create ();
  }

(* The view-change table's actions, as the driver's: [Done] stays here,
   as the detector's feedback and the count. *)
let vc_feed t ~now ~into f =
  Batch.clear t.vc_acts;
  f ~into:t.vc_acts;
  Batch.iter
    (function
      | View_change.Coord_change { replica; observer; tid; view } ->
          Batch.emit into (Coord_change { replica; observer; tid; view })
      | View_change.Vc_accept { replica; observer; txn; ts; decision; view } ->
          Batch.emit into (Vc_accept { replica; observer; txn; ts; decision; view })
      | View_change.Write_back { observer; txn; ts; commit } ->
          Batch.emit into (Write_back { observer; txn; ts; commit })
      | View_change.Done { tid; observer; outcome } ->
          Detector.view_change_finished t.det ~now ~observer ~tid ~outcome;
          if outcome = `Finished then t.view_changes <- t.view_changes + 1)
    t.vc_acts

(* Every core's last answer for [o], core by core. Z7: [o] is a hosted
   observer, checked in [0, n) by [create]. *)
let[@mk_lint.allow "Z7"] observer_records t o () =
  List.concat (List.init t.cores (fun core -> t.latest.((o * t.cores) + core)))

let scan t o ~now ~into =
  Batch.clear t.det_acts;
  Detector.scan t.det ~now ~observer:o ~paused:(t.host.paused o)
    ~available:(t.host.available o) ~records:(observer_records t o)
    ~recoverable:(t.host.recoverable ~now) ~into:t.det_acts;
  Batch.iter
    (function
      | Detector.Start_view_change { observer; record; view } ->
          vc_feed t ~now ~into
            (View_change.start t.vcs ~observer ~record ~view ~rto:t.rto
               ~deadline:(now +. t.cfg.give_up_after) ~now)
      | Detector.Start_epoch_change { recovering } ->
          Batch.emit into (Start_epoch_change { recovering }))
    t.det_acts

(* Observer slot [i]'s scan, if due. Z7: [i] indexes [observers], whose
   length [next_scan] shares. *)
let[@mk_lint.allow "Z7"] scan_due t ~now ~into i o =
  if now >= t.next_scan.(i) then begin
    t.next_scan.(i) <- now +. t.cfg.scan_every;
    if t.scanning && t.host.up o then scan t o ~now ~into
  end

let tick t ~now ~into =
  if now >= t.next_due then begin
    if now >= t.next_hb then begin
      t.next_hb <- now +. t.cfg.heartbeat_every;
      Array.iter
        (fun o ->
          if t.host.up o then begin
            let paused = t.host.paused o in
            for dst = 0 to t.n - 1 do
              if dst <> o then Batch.emit into (Heartbeat { from_ = o; dst; paused })
            done
          end)
        t.observers
    end;
    if now >= t.next_push then begin
      (* Twice per scan, so each scan sees records at most half a scan
         old. A lost request or answer just skips one round. *)
      t.next_push <- now +. (t.cfg.scan_every /. 2.0);
      Batch.emit into Push_records
    end;
    Array.iteri (scan_due t ~now ~into) t.observers;
    if now >= View_change.next_due t.vcs then
      vc_feed t ~now ~into (View_change.fire_due t.vcs ~now);
    t.next_due <-
      Array.fold_left Float.min
        (Float.min (Float.min t.next_hb t.next_push) (View_change.next_due t.vcs))
        t.next_scan
  end

let next_due t = t.next_due

let replica_ok t r = r >= 0 && r < t.n

(* An observer never hears itself: a heartbeat claiming to is dropped. *)
let heartbeat t ~now ~observer ~from_ ~paused =
  if replica_ok t observer && replica_ok t from_ && from_ <> observer && t.host.up observer
  then
    Detector.heartbeat_received t.det ~now ~observer ~from_ ~paused

let records t ~observer ~core entries =
  if replica_ok t observer && core >= 0 && core < t.cores then
    (* Z7: both ids checked just above. *)
    (t.latest.((observer * t.cores) + core) <- entries) [@mk_lint.allow "Z7"]

let coord_reply t ~now ~tid ~observer ~view ~replica reply ~into =
  vc_feed t ~now ~into (View_change.coord_reply t.vcs ~tid ~observer ~view ~replica reply)

let accept_reply t ~now ~tid ~observer ~view ~replica reply ~into =
  vc_feed t ~now ~into (View_change.accept_reply t.vcs ~tid ~observer ~view ~replica reply)

let epoch_change_finished t ~now ~success ~recovering =
  Detector.epoch_change_finished t.det ~now ~success ~recovering

let retire t = t.scanning <- false
let view_changes t = t.view_changes
let view_change_inflight t tid = Detector.view_change_inflight t.det tid
let suspected t ~now ~observer = Detector.suspected t.det ~now ~observer
