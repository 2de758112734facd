(* The cluster client's outstanding execute-phase read batches.

   A batch is one frame's worth of one transaction's reads in one
   group: the keys, the replica it waits on, and one retry deadline.
   The table keeps per-batch state only — nothing per key — so a
   transaction's reads cost one entry per group however many keys it
   reads. Time comes in as [~now] and frames leave through the
   caller's [send], so the table is pure and tests drive it with a
   fake transport. *)

module Timestamp = Mk_clock.Timestamp

type send = shard:int -> replica:int -> rid:int -> int array -> unit

type batch = {
  shard : int;
  keys : int array;  (** This frame's keys. *)
  base : int;  (** Index of [keys.(0)] in the caller's batch. *)
  k : int -> int -> Timestamp.t -> unit;
  mutable target : int;
  mutable rto : float;
  mutable retry_at : float;
}

type t = {
  n : int;
  rto : float;
  rto_cap : float;
  send : send;
  table : (int, batch) Hashtbl.t;
  mutable next_rid : int;
  mutable next_due : float;  (** Lower bound on every [retry_at]. *)
}

(* A [Read_replies] frame is 42 bytes plus 24 per key: 1 024 keys make
   ~24 KiB, so a reply always fits one 65 507-byte datagram. *)
let max_keys = 1024

let create ~n ~rto ~rto_cap ~send =
  if n < 1 then invalid_arg "Read_table.create: n must be >= 1";
  {
    n;
    rto;
    rto_cap;
    send;
    table = Hashtbl.create 64;
    next_rid = 0;
    next_due = infinity;
  }

let issue t ~now ~shard ~target ~keys k =
  let total = Array.length keys in
  let target = target mod t.n in
  let rec go base =
    if base < total then begin
      let len = min max_keys (total - base) in
      let keys = if len = total then keys else Array.sub keys base len in
      let rid = t.next_rid in
      t.next_rid <- rid + 1;
      let retry_at = now +. t.rto in
      Hashtbl.replace t.table rid
        { shard; keys; base; k; target; rto = t.rto; retry_at };
      if retry_at < t.next_due then t.next_due <- retry_at;
      t.send ~shard ~replica:target ~rid keys;
      go (base + len)
    end
  in
  go 0

type reply = Fed | Stale | Misrouted | Malformed

(* Z7: [i] runs over [0, len), and the source was just checked to
   hold exactly [len] values and [len] stamps. *)
let reply_with t ~rid ~shard ~n_values ~n_wts src ~value ~wts =
  match Hashtbl.find t.table rid with
  | exception Not_found -> Stale
  | b ->
      let len = Array.length b.keys in
      if b.shard <> shard then Misrouted
      else if n_values <> len || not (Int.equal n_wts len) then Malformed
      else begin
        Hashtbl.remove t.table rid;
        for i = 0 to len - 1 do
          b.k (b.base + i) (value src i) (wts src i)
        done;
        Fed
      end

let[@mk_lint.allow "Z7"] reply t ~rid ~shard ~values ~wts =
  reply_with t ~rid ~shard ~n_values:(Array.length values)
    ~n_wts:(Array.length wts) (values, wts)
    ~value:(fun (values, _) i -> values.(i))
    ~wts:(fun (_, wts) i -> wts.(i))

let retry_due t ~now =
  if now < t.next_due then 0
  else begin
    let due =
      Hashtbl.fold
        (fun rid b acc -> if now >= b.retry_at then (rid, b) :: acc else acc)
        t.table []
    in
    List.iter
      (fun (rid, b) ->
        b.target <- (b.target + 1) mod t.n;
        b.rto <- Float.min (b.rto *. 2.0) t.rto_cap;
        b.retry_at <- now +. b.rto;
        t.send ~shard:b.shard ~replica:b.target ~rid b.keys)
      due;
    t.next_due <-
      Hashtbl.fold (fun _ b m -> Float.min m b.retry_at) t.table infinity;
    List.length due
  end

let next_due t = t.next_due
let in_flight t = Hashtbl.length t.table
