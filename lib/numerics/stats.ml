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

let rmse predicted actual =
  check_same_length "rmse" predicted actual;
  check_nonempty "rmse" predicted;
  let n = Array.length predicted in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = predicted.(i) -. actual.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int n)

let pearson a b =
  check_same_length "pearson" a b;
  if Array.length a < 2 then invalid_arg "Stats.pearson: need at least two points";
  let ma = mean a and mb = mean b in
  let sab = ref 0.0 and saa = ref 0.0 and sbb = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let da = a.(i) -. ma and db = b.(i) -. mb in
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
