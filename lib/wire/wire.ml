(* Byte-level wire primitives: deterministic little-endian writers
   over a [Buffer.t] and a bounds-checked, sticky-error reader cursor
   whose every operation is total — a truncated or hostile input marks
   the cursor bad and ends in [Error], never an exception. The framing (magic, version, kind, length) and
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

(* A sticky-error cursor: every reader checks its bytes against
   [limit] and returns a plain value. The first failure marks the
   cursor [bad] and keeps its error; from then on every read returns a
   dummy and records nothing, so a decoder reads a whole frame without
   a branch or an allocation per field and checks once, at the end
   ({!finish}). *)
type cursor = {
  buf : string;
  mutable pos : int;
  mutable limit : int;
  mutable bad : bool;
  mutable err : error;  (** The first failure; meaningful once [bad]. *)
  mutable shard : int;  (** The last frame header's shard stamp. *)
}

let fail c e =
  if not c.bad then begin
    c.bad <- true;
    c.err <- e
  end

let cursor ?(pos = 0) ?limit buf =
  let len = String.length buf in
  let limit = match limit with Some l -> max 0 (min l len) | None -> len in
  let c = { buf; pos; limit; bad = false; err = Trailing 0; shard = 0 } in
  if pos < 0 then fail c (Malformed "negative position");
  c

let reset c ~pos ~limit =
  c.pos <- pos;
  c.limit <- max 0 (min limit (String.length c.buf));
  c.bad <- false;
  if pos < 0 then fail c (Malformed "negative position")

let remaining c = c.limit - c.pos
let position c = c.pos

let seek c pos =
  if (not c.bad) && pos >= 0 && pos <= c.pos then c.pos <- pos
  else fail c (Malformed "seek past the read position")
let failed c = if c.bad then Some c.err else None

let finish c v =
  if c.bad then Error c.err
  else if c.pos < c.limit then Error (Trailing (c.limit - c.pos))
  else Ok v

(* The offset of the next [n] bytes, now consumed; or -1 once the
   cursor is bad or fewer than [n] bytes are left before [limit].
   Every reader indexes [c.buf] only at offsets this returned. *)
let take c n =
  if c.bad then -1
  else
    let have = c.limit - c.pos in
    if have < n then begin
      fail c (Truncated { need = n; have });
      -1
    end
    else begin
      let at = c.pos in
      c.pos <- at + n;
      at
    end

(* A u32 is a byte sequence: a short one fails at its first missing
   byte (need 1, have 0), as reading it byte by byte would. *)
let take_bytes c n =
  if (not c.bad) && c.limit - c.pos < n then begin
    c.pos <- c.limit;
    take c 1
  end
  else take c n

(* Z7: the readers below index [c.buf] only at offsets [take] has just
   checked against [c.limit] (itself clamped to the string's length),
   so the raw [String.get*] accesses cannot raise — and cannot see a
   byte past [limit], such as a stale one in a reused receive
   buffer. *)
let[@mk_lint.allow "Z7"] r_u8 c =
  let at = take c 1 in
  if at < 0 then 0 else Char.code c.buf.[at]

let[@mk_lint.allow "Z7"] r_u32 c =
  let at = take_bytes c 4 in
  if at < 0 then 0
  else Int32.to_int (String.get_int32_le c.buf at) land 0xffff_ffff

let[@mk_lint.allow "Z7"] r_i64 c =
  let at = take c 8 in
  if at < 0 then 0 else Int64.to_int (String.get_int64_le c.buf at)

let[@mk_lint.allow "Z7"] r_f64 c =
  let at = take c 8 in
  if at < 0 then 0.0 else Int64.float_of_bits (String.get_int64_le c.buf at)

let skip c n = take_bytes c n

(* Z7: a read at an offset [skip] returned, re-checked against the
   cursor's window so a wrong offset reads as 0, never raises. *)
let[@mk_lint.allow "Z7"] i64_at c at =
  if at < 0 || at + 8 > c.limit then 0 else Int64.to_int (String.get_int64_le c.buf at)

let[@mk_lint.allow "Z7"] f64_at c at =
  if at < 0 || at + 8 > c.limit then 0.0
  else Int64.float_of_bits (String.get_int64_le c.buf at)

let r_bool c =
  match r_u8 c with
  | 0 -> false
  | 1 -> true
  | n ->
      fail c (Malformed (Printf.sprintf "bool byte %d" n));
      false

let[@mk_lint.allow "Z7"] r_string c =
  let len = r_u32 c in
  let at = take c len in
  if at < 0 then "" else String.sub c.buf at len

let r_option r c =
  match r_u8 c with
  | 0 -> None
  | 1 -> Some (r c)
  | n ->
      fail c (Malformed (Printf.sprintf "option tag %d" n));
      None

(* A hostile count (e.g. 2^32 - 1) must fail fast, not allocate: every
   element occupies at least [elt_min] bytes, so any honest count is
   bounded by the bytes actually present. *)
let r_count ~elt_min c =
  let count = r_u32 c in
  let elt_min = max 1 elt_min in
  if count > remaining c / elt_min then begin
    fail c
      (Malformed
         (Printf.sprintf "sequence count %d exceeds %d remaining bytes" count
            (remaining c)));
    0
  end
  else count

let r_list ~elt_min r c =
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      let v = r c in
      go (v :: acc) (n - 1)
  in
  go [] (r_count ~elt_min c)

(* Straight into the array, in wire order. Z7: [a.(i)] indexes
   [1, n) of an [n]-element array. *)
let[@mk_lint.allow "Z7"] r_array ~elt_min r c =
  let n = r_count ~elt_min c in
  if n = 0 then [||]
  else begin
    let a = Array.make n (r c) in
    for i = 1 to n - 1 do
      a.(i) <- r c
    done;
    a
  end

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
   view they answer. Version 4: the multi-key execute-phase read
   ([Reads] / [Read_replies], one frame per transaction and group). *)
let version = 4
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

(* Read the frame header at the cursor's position and narrow the
   cursor to the frame's payload: afterwards reads run from the
   payload's first byte to its last, and [frame_end] is the offset just
   past the frame. [whole] is the one-frame input of {!unframe}: bytes
   after the frame are [Trailing]. Returns the kind and keeps the shard
   stamp in the cursor; on a bad header the cursor is bad and both
   are 0. *)
let header ~whole c =
  c.shard <- 0;
  if (not c.bad) && remaining c < header_bytes then begin
    fail c (Truncated { need = header_bytes; have = remaining c });
    0
  end
  else
    (* Magic, version and kind: the header's first four bytes. *)
    let mvk = r_u32 c in
    if mvk land 0xffff <> Char.code magic0 lor (Char.code magic1 lsl 8) then begin
      fail c Bad_magic;
      0
    end
    else
      let v = (mvk lsr 16) land 0xff in
      if v <> version then begin
        fail c (Bad_version v);
        0
      end
      else
        let kind = mvk lsr 24 in
        let shard_lo = r_u8 c in
        let shard = shard_lo lor (r_u8 c lsl 8) in
        let len = r_u32 c in
        let p = take c len in
        if p < 0 then 0
        else begin
          if whole && c.pos < c.limit then fail c (Trailing (c.limit - c.pos));
          c.pos <- p;
          c.limit <- p + len;
          c.shard <- shard;
          kind
        end

let unframe c =
  let kind = header ~whole:true c in
  (kind, c.shard)

let unframe_at c =
  let kind = header ~whole:false c in
  (kind, c.shard)

let unframe_kind_at c = header ~whole:false c
let frame_shard c = c.shard
let frame_end c = c.limit
