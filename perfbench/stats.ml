(* Exact statistics over raw samples.  Quantiles interpolate linearly
   between the two closest ranks (the "inclusive" definition), so a
   reported p90 is a function of the samples alone — never a histogram
   bucket bound. *)

let quantile q samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    Array.sort Float.compare a;
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median samples = quantile 0.5 samples

let sum samples = List.fold_left ( +. ) 0.0 samples

let mean samples =
  match samples with [] -> Float.nan | _ -> sum samples /. float_of_int (List.length samples)

(* [num / den], or 0 when nothing was measured (a layer a workload never
   exercises reports 0, not nan). *)
let ratio num den = if den > 0.0 then num /. den else 0.0
