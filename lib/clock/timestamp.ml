type t = { time : float; client_id : int }

let compare a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.client_id b.client_id

let equal a b = compare a b = 0
let zero = { time = neg_infinity; client_id = min_int }
let infinity = { time = Float.infinity; client_id = max_int }
let make ~time ~client_id = { time; client_id }
let pp ppf t = Format.fprintf ppf "%.3f@@c%d" t.time t.client_id
let to_string t = Format.asprintf "%a" pp t

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Tid = struct
  type t = { seq : int; client_id : int }

  let compare a b =
    let c = Int.compare a.client_id b.client_id in
    if c <> 0 then c else Int.compare a.seq b.seq

  let equal a b = a.seq = b.seq && a.client_id = b.client_id

  (* Multiplicative mix of both fields, masked non-negative. The old
     [client_id * 1_000_003 + seq] overflowed to negative for client
     ids above ~2^42, and a negative hash turns [hash mod partitions]
     into a negative partition index — an out-of-range crash in
     Trecord steering. Constants fit in 62 bits so the literals are
     valid on 64-bit OCaml; wrap-around during mixing is intended. *)
  let hash t =
    let h = (t.client_id * 0x9E3779B1) lxor (t.seq * 0x85EBCA77) in
    let h = (h lxor (h lsr 31)) * 0x27D4EB2F in
    (h lxor (h lsr 29)) land max_int
  let make ~seq ~client_id = { seq; client_id }
  let pp ppf t = Format.fprintf ppf "t%d.%d" t.client_id t.seq
  let to_string t = Format.asprintf "%a" pp t

  module Table = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)
end
