(* CRC-32/ISO-HDLC (the IEEE 802.3 polynomial, reflected), computed
   slicing-by-4: four bytes per step through four 256-entry tables.
   Every WAL record and snapshot is checksummed on the thread that
   owns its core, and a checkpoint checksums the core's whole
   trecord, so the per-byte cost is on the transaction path. On a
   shared 2-vCPU VM a bitwise loop runs at ~25 ns/byte over a
   146-byte record (~78 over 1 MiB), a byte-at-a-time table at ~4.2,
   and this loop at ~3.0-3.2 (EXPERIMENTS.md).

   The tables are one immutable 4 KiB string built at module init —
   not mutable state, so rule Z1 does not apply and the module stays
   pure (Z6). The recovery readers (rule Z7) reach [digest_sub], so
   its raw reads carry per-site allows with their bounds stated. *)

let poly = 0xedb88320
let mask = 0xffff_ffff

(* Entry [i] of slice [k] is the u32 (little-endian) at byte
   [4 * (256 k + i)]. Slice 0 is the classic byte table; slice [k+1]
   advances slice [k]'s entry through one more zero byte. Built in a
   function so the scratch array is per call, not top-level state.
   Z7: [i] stays in [0, 1024), [i - 256] and [v land 0xff] in
   [0, 256), [j / 4] in [0, 1024), and [land 0xff] keeps every
   [Char.chr] argument in [0, 255]. *)
let[@mk_lint.allow "Z7"] build_tables () =
  let t = Array.make 1024 0 in
  for i = 0 to 255 do
    let crc = ref i in
    for _ = 0 to 7 do
      crc := (!crc lsr 1) lxor (if !crc land 1 = 1 then poly else 0)
    done;
    t.(i) <- !crc
  done;
  for i = 256 to 1023 do
    let v = t.(i - 256) in
    t.(i) <- (v lsr 8) lxor t.(v land 0xff)
  done;
  String.init 4096 (fun j -> Char.chr ((t.(j / 4) lsr (8 * (j land 3))) land 0xff))

let tables = build_tables ()

(* Z7: [slice] is 0..3 and [land 0xff] bounds the index to 0..255, so
   the read stays inside its 1 024-byte slice of the 4 096-byte
   string. *)
let[@inline] [@mk_lint.allow "Z7"] lookup slice b =
  Int32.to_int (String.get_int32_le tables ((slice lsl 10) lor ((b land 0xff) lsl 2)))
  land mask

(* Z7: callers pass [pos >= 0] and [pos + len <= String.length s]; the
   word loop reads [s] at [i] only while [i + 4 <= pos + len], and the
   byte tail at [i < pos + len]. *)
let[@mk_lint.allow "Z7"] digest_range s ~pos ~len =
  let stop = pos + len in
  let crc = ref mask and i = ref pos in
  while !i + 4 <= stop do
    let c = !crc lxor (Int32.to_int (String.get_int32_le s !i) land mask) in
    crc :=
      lookup 3 c lxor lookup 2 (c lsr 8) lxor lookup 1 (c lsr 16)
      lxor lookup 0 (c lsr 24);
    i := !i + 4
  done;
  while !i < stop do
    let c = !crc in
    crc := (c lsr 8) lxor lookup 0 (c lxor Char.code s.[!i]);
    incr i
  done;
  lnot !crc land mask

let digest_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    (* Z7: the replay reader ({!Walcodec.read_records}) passes a frame
       it has just bounded by the log's length, so this never raises
       there. *)
    (invalid_arg "Crc32.digest_sub: range outside the string"
    [@mk_lint.allow "Z7"]);
  digest_range s ~pos ~len

let digest s = digest_sub s ~pos:0 ~len:(String.length s)
