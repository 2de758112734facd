(* Byte-level wire primitives: deterministic little-endian writers
   over a [Buffer.t] and a bounds-checked reader cursor whose every
   operation is total — a truncated or hostile input yields [Error],
   never an exception. The framing (magic, version, kind, length) and
   the message payloads in {!Codec} are both built from these.

   Integers travel as fixed-width two's-complement (u8/u16/u32 for
   tags and counts, i64 for OCaml ints), floats as their IEEE-754
   bits: fixed widths keep encoding deterministic (the same value is
   always the same bytes — golden frames in tests stay valid) and
   decoding trivially bounded. *)

type error =
  | Truncated of { need : int; have : int }
  | Bad_magic
  | Bad_version of int
  | Unknown_kind of int
  | Trailing of int
  | Malformed of string

let pp_error ppf = function
  | Truncated { need; have } ->
      Format.fprintf ppf "truncated frame: need %d bytes, have %d" need have
  | Bad_magic -> Format.fprintf ppf "bad magic (not a Meerkat frame)"
  | Bad_version v -> Format.fprintf ppf "unsupported wire version %d" v
  | Unknown_kind k -> Format.fprintf ppf "unknown message kind %d" k
  | Trailing n -> Format.fprintf ppf "%d trailing bytes after frame" n
  | Malformed what -> Format.fprintf ppf "malformed payload: %s" what

let error_to_string e = Format.asprintf "%a" pp_error e

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let w_u16 b v =
  w_u8 b v;
  w_u8 b (v lsr 8)

(* Lengths and counts travel as u32: a value that does not fit would
   silently truncate into a frame that decodes to the wrong length.
   Encoding is the local, trusted side, so an out-of-range value is a
   programming error — reject it loudly instead of emitting a
   corrupt frame. *)
let w_u32 b v =
  if v < 0 || v > 0xffff_ffff then
    invalid_arg (Printf.sprintf "Wire.w_u32: %d does not fit in 32 bits" v);
  w_u16 b (v land 0xffff);
  w_u16 b ((v lsr 16) land 0xffff)

let w_i64 b v = Buffer.add_int64_le b (Int64.of_int v)
let w_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)
let w_bool b v = w_u8 b (if v then 1 else 0)

let w_string b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_option w b = function
  | None -> w_u8 b 0
  | Some v ->
      w_u8 b 1;
      w b v

let w_list w b xs =
  w_u32 b (List.length xs);
  List.iter (w b) xs

let w_array w b xs =
  w_u32 b (Array.length xs);
  Array.iter (w b) xs

(* ------------------------------------------------------------------ *)
(* Reader cursor                                                       *)
(* ------------------------------------------------------------------ *)

type cursor = { buf : string; mutable pos : int; limit : int }

let cursor ?(pos = 0) ?limit buf =
  let limit = match limit with Some l -> l | None -> String.length buf in
  { buf; pos; limit }

let remaining c = c.limit - c.pos
let ( let* ) = Result.bind

let take c n =
  if n < 0 then Error (Malformed "negative length")
  else if remaining c < n then Error (Truncated { need = n; have = remaining c })
  else begin
    let at = c.pos in
    c.pos <- at + n;
    Ok at
  end

(* Z7: the reader primitives below index [c.buf] only at offsets that
   [take] has just bounds-checked against [c.limit], so the raw
   [String.get]/[String.sub]/[get_int64_le] accesses cannot raise. *)
let[@mk_lint.allow "Z7"] r_u8 c =
  let* at = take c 1 in
  Ok (Char.code c.buf.[at])

let r_u16 c =
  let* lo = r_u8 c in
  let* hi = r_u8 c in
  Ok (lo lor (hi lsl 8))

let r_u32 c =
  let* lo = r_u16 c in
  let* hi = r_u16 c in
  Ok (lo lor (hi lsl 16))

let[@mk_lint.allow "Z7"] r_i64 c =
  let* at = take c 8 in
  Ok (Int64.to_int (String.get_int64_le c.buf at))

let[@mk_lint.allow "Z7"] r_f64 c =
  let* at = take c 8 in
  Ok (Int64.float_of_bits (String.get_int64_le c.buf at))

let r_bool c =
  let* v = r_u8 c in
  match v with
  | 0 -> Ok false
  | 1 -> Ok true
  | n -> Error (Malformed (Printf.sprintf "bool byte %d" n))

let[@mk_lint.allow "Z7"] r_string c =
  let* len = r_u32 c in
  let* at = take c len in
  Ok (String.sub c.buf at len)

let r_option r c =
  let* tag = r_u8 c in
  match tag with
  | 0 -> Ok None
  | 1 ->
      let* v = r c in
      Ok (Some v)
  | n -> Error (Malformed (Printf.sprintf "option tag %d" n))

(* A hostile count (e.g. 2^32 - 1) must fail fast, not allocate: every
   element occupies at least [elt_min] bytes, so any honest count is
   bounded by the bytes actually present. *)
let r_seq ~elt_min r c =
  let* count = r_u32 c in
  let elt_min = max 1 elt_min in
  if count > remaining c / elt_min then
    Error
      (Malformed
         (Printf.sprintf "sequence count %d exceeds %d remaining bytes" count
            (remaining c)))
  else begin
    let rec go acc i =
      if i = count then Ok (List.rev acc)
      else
        let* v = r c in
        go (v :: acc) (i + 1)
    in
    go [] 0
  end

let r_list ~elt_min r c = r_seq ~elt_min r c

let r_array ~elt_min r c =
  let* xs = r_seq ~elt_min r c in
  Ok (Array.of_list xs)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let magic0 = 'M'
let magic1 = 'K'

(* Version 2 (multi-group sharding): the header grew a u16 shard-group
   id between the kind tag and the payload length, so one socket fabric
   can carry several shard groups and a node can refuse frames
   addressed to another group before touching the payload. Version 1
   frames (no shard field) are rejected as [Bad_version] — the cluster
   is deployed as one unit, never mixed-version. Version 3: the
   view-change replies ([Coord_reply], [Vc_accept_reply]) carry the
   view they answer. *)
let version = 3
let header_bytes = 10
let max_shard = 0xffff

let check_shard shard =
  if shard < 0 || shard > max_shard then
    invalid_arg (Printf.sprintf "Wire.frame: shard %d outside [0, %d]" shard max_shard)

let add_header b ~kind ~shard ~len =
  Buffer.add_char b magic0;
  Buffer.add_char b magic1;
  w_u8 b version;
  w_u8 b kind;
  w_u16 b shard;
  w_u32 b len

let frame ?(shard = 0) ~kind payload =
  check_shard shard;
  let b = Buffer.create (header_bytes + String.length payload) in
  add_header b ~kind ~shard ~len:(String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* Allocation-free framing for reused buffers: the header carries the
   payload length, so the payload is staged in [scratch] (cleared
   here) and appended to [out] after the header. [out] is not cleared
   — frames accumulate, which is how a sender coalesces several
   frames into one datagram. *)
let frame_into ?(shard = 0) ~kind ~scratch ~out writer =
  check_shard shard;
  Buffer.clear scratch;
  writer scratch;
  add_header out ~kind ~shard ~len:(Buffer.length scratch);
  Buffer.add_buffer out scratch

let unframe s =
  let c = cursor s in
  if remaining c < header_bytes then
    Error (Truncated { need = header_bytes; have = remaining c })
  else begin
    let* m0 = r_u8 c in
    let* m1 = r_u8 c in
    if m0 <> Char.code magic0 || m1 <> Char.code magic1 then Error Bad_magic
    else
      let* v = r_u8 c in
      if v <> version then Error (Bad_version v)
      else
        let* kind = r_u8 c in
        let* shard = r_u16 c in
        let* len = r_u32 c in
        let* at = take c len in
        if remaining c > 0 then Error (Trailing (remaining c))
        else Ok (kind, shard, cursor ~pos:at ~limit:(at + len) s)
  end

(* One frame out of a multi-frame datagram: like {!unframe} but bytes
   after this frame are the next frame, not an error, so the caller
   also gets the offset where it ends. [next] always advances past
   [pos] (the header alone is [header_bytes]), so a decode-burst loop
   over a hostile datagram terminates. *)
let unframe_at s ~pos =
  let c = cursor ~pos s in
  if remaining c < header_bytes then
    Error (Truncated { need = header_bytes; have = remaining c })
  else begin
    let* m0 = r_u8 c in
    let* m1 = r_u8 c in
    if m0 <> Char.code magic0 || m1 <> Char.code magic1 then Error Bad_magic
    else
      let* v = r_u8 c in
      if v <> version then Error (Bad_version v)
      else
        let* kind = r_u8 c in
        let* shard = r_u16 c in
        let* len = r_u32 c in
        let* at = take c len in
        Ok (kind, shard, cursor ~pos:at ~limit:(at + len) s, at + len)
  end
