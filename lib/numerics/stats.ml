let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (Printf.sprintf "Stats.%s: empty input" name)

let check_same_length name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Stats.%s: length mismatch (%d vs %d)" name (Array.length a) (Array.length b))

let mean xs =
  check_nonempty "mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "variance" xs;
  let m = mean xs in
  let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
  acc /. float_of_int (Array.length xs)

let std_dev xs = sqrt (variance xs)

(* The largest magnitude in [xs], NaN if one is NaN. *)
let max_abs xs =
  let m = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    let x = Float.abs xs.(i) in
    if x > !m || Float.is_nan x then m := x
  done;
  !m

(* The exponent [e] that puts [m], scaled by [2^-e], in [0.5, 1) (as
   [Float.frexp] gives it), but at least -1022, so that [2^-e] is a
   float: a smaller maximum lands in [2^-52, 0.5).  A power of two scales
   exactly short of underflow and overflow, so a sum over inputs scaled by
   it is the unscaled sum, scaled, bit for bit, wherever the unscaled one
   neither underflowed nor overflowed, and stays in range where it did:
   the statistics below do not depend on the inputs' unit.  A maximum of
   0, infinity or NaN leaves its inputs as they are. *)
let unit_exponent m =
  if m = 0.0 || not (Float.is_finite m) then 0
  else
    let e = snd (Float.frexp m) in
    if e < -1022 then -1022 else e

let rmse predicted actual =
  check_same_length "rmse" predicted actual;
  check_nonempty "rmse" predicted;
  let e = unit_exponent (Float.max (max_abs predicted) (max_abs actual)) in
  let s = Float.ldexp 1.0 (-e) and n = Array.length predicted in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = (predicted.(i) *. s) -. (actual.(i) *. s) in
    acc := !acc +. (d *. d)
  done;
  Float.ldexp (sqrt (!acc /. float_of_int n)) e

let pearson a b =
  check_same_length "pearson" a b;
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.pearson: need at least two points";
  let scale xs = Float.ldexp 1.0 (-unit_exponent (max_abs xs)) in
  let sa = scale a and sb = scale b in
  let ta = ref 0.0 and tb = ref 0.0 in
  for i = 0 to n - 1 do
    ta := !ta +. (a.(i) *. sa);
    tb := !tb +. (b.(i) *. sb)
  done;
  let ma = !ta /. float_of_int n and mb = !tb /. float_of_int n in
  let sab = ref 0.0 and saa = ref 0.0 and sbb = ref 0.0 in
  for i = 0 to n - 1 do
    let da = (a.(i) *. sa) -. ma and db = (b.(i) *. sb) -. mb in
    sab := !sab +. (da *. db);
    saa := !saa +. (da *. da);
    sbb := !sbb +. (db *. db)
  done;
  if !saa = 0.0 || !sbb = 0.0 then Float.nan else !sab /. sqrt (!saa *. !sbb)

let quantile q xs =
  check_nonempty "quantile" xs;
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let w = pos -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))

let argmax xs =
  check_nonempty "argmax" xs;
  let best = ref 0 in
  Array.iteri (fun i x -> if x > xs.(!best) then best := i) xs;
  !best

let argmin xs =
  check_nonempty "argmin" xs;
  let best = ref 0 in
  Array.iteri (fun i x -> if x < xs.(!best) then best := i) xs;
  !best
