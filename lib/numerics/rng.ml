(* The 64-bit state lives as raw bytes, read and written with the
   unchecked native-endian 64-bit primitives: ocamlopt compiles each to a
   single load or store of an unboxed int64, so advancing the generator
   allocates nothing and calls nothing.  Not the bits in a one-cell float
   array: [Int64.bits_of_float] and [Int64.float_of_bits] are noalloc C
   calls, not register moves, so a draw would pay two.  Not a [mutable
   int64] field either: it would hold a pointer to a boxed Int64, and
   every state store would allocate a 3-word box. *)
type t = bytes

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline always] get_state (t : t) = get64u t 0

let[@inline always] set_state (t : t) s = set64u t 0 s

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s : t =
  let t = Bytes.create 8 in
  set_state t s;
  t

let create seed = of_state (Int64.of_int seed)

(* splitmix64 finaliser (Steele, Lea, Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The drawing functions below each advance the state and apply the
   finaliser in one body instead of calling [int64] (which calls [mix]):
   without flambda those calls are not reliably inlined, and every call
   boundary boxes its Int64 result.  Fused, the intermediates stay in
   registers.  The arithmetic is identical, so every stream is bit-for-bit
   unchanged. *)

let[@inline always] int64 t =
  let s = Int64.add (get_state t) golden_gamma in
  set_state t s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (mix (int64 t))

let[@inline always] float t =
  let s = Int64.add (get_state t) golden_gamma in
  set_state t s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  (* 53 high bits give a uniform double in [0,1).  They fit a native int
     and convert to float exactly, the same value [Int64.to_float] (a C
     call) returns. *)
  let bits = Int64.shift_right_logical z 11 in
  Float.of_int (Int64.to_int bits) *. (1.0 /. 9007199254740992.0)

let[@inline always] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let s = Int64.add (get_state t) golden_gamma in
  set_state t s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  (* Drop to the native int width and clear the sign bit before reducing. *)
  let v = Int64.to_int z land max_int in
  v mod bound

let[@inline always] bool t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t < p

let[@inline always] gaussian t ~mu ~sigma =
  let u1 = 1.0 -. float t in
  let u2 = float t in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
