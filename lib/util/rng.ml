(* xoshiro256** state: s0..s3 as four native-endian int64 words in one
   32-byte buffer. Reading and writing them through the bytes
   primitives keeps every step in unboxed registers — four mutable
   [int64] record fields would box on every store. *)
type t = Bytes.t

(* The buffer is always exactly 32 bytes (made by [create] or [copy]),
   so the offsets below are in range by construction. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64, used only to expand a seed into xoshiro state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix64 state)
  done;
  t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step. Inlined into each caller, so the result
   stays unboxed unless the caller itself returns an [int64]. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 8 (logxor s1 s2);
  set64 t 0 (logxor s0 s3);
  set64 t 16 (logxor s2 tmp);
  set64 t 24 (rotl s3 45);
  result

let bits64 t = next t
let copy = Bytes.copy

let split t =
  (* Reseed a fresh generator from the parent's stream. *)
  let seed = Int64.to_int (next t) land max_int in
  create ~seed

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for
     bounds far below 2^62, which covers all simulator uses. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let uniform t =
  (* 53 random bits mapped to [0, 1). *)
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v *. 0x1.0p-53

let float t bound = uniform t *. bound
let bool t = Int64.to_int (next t) land 1 = 1

let exponential t ~mean =
  let u = uniform t in
  (* [uniform] is in [0, 1); guard against log 0. *)
  -.mean *. log (1.0 -. u)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
