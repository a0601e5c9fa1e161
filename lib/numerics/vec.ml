type t = float array

let init = Array.init

let dim = Array.length

let copy = Array.copy

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name (Array.length a) (Array.length b))

let dot a b =
  check_dims "dot" a b;
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2 a = sqrt (dot a a)

(* Loops rather than folds over the polymorphic [Array] iterators, which
   box every element; the fit core calls these on every LM iteration. *)
let norm_inf a =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := Float.max !acc (Float.abs a.(i))
  done;
  !acc

let all_finite a =
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if not (Float.is_finite a.(i)) then ok := false
  done;
  !ok

let max_elt a =
  if Array.length a = 0 then invalid_arg "Vec.max_elt: empty vector";
  Array.fold_left Float.max a.(0) a

let min_elt a =
  if Array.length a = 0 then invalid_arg "Vec.min_elt: empty vector";
  Array.fold_left Float.min a.(0) a
