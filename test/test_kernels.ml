(* Tests for the Table 1 kernel set and the fitter. *)

open Estima_numerics
open Estima_kernels

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1.0 (Float.max (Float.abs expected) (Float.abs actual))
  then Alcotest.failf "%s: expected %.12g, got %.12g" what expected actual

let grid = Array.init 10 (fun i -> float_of_int (i + 1))

(* The Jacobian each kernel's staged objective writes for Lm must agree
   with finite differences of its own residuals, entry by entry: an entry
   left unwritten stays NaN and fails. *)
let check_gradient (kernel : Kernel.t) params =
  let m = Array.length grid and n = kernel.Kernel.arity in
  let objective = Kernel.residual_objective kernel ~xs:grid ~ys:(Array.make m 0.0) in
  let analytic = Array.make (m * n) Float.nan in
  objective.Lm.jacobian_into params analytic;
  let fd = Lm.finite_difference_jacobian objective.Lm.residual params in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let a = analytic.((i * n) + j) and b = Mat.get fd i j in
      if not (Float.abs (a -. b) <= 1e-5 *. Float.max 1.0 (Float.abs b)) then
        Alcotest.failf "%s gradient (%g) component %d: analytic %.10g vs fd %.10g" kernel.Kernel.name grid.(i) j
          a b
    done
  done

let test_rat22_gradient () = check_gradient Rational.rat22 [| 1.0; 0.5; 0.2; 0.1; 0.05 |]
let test_rat23_gradient () = check_gradient Rational.rat23 [| 1.0; 0.5; 0.2; 0.1; 0.05; 0.01 |]
let test_rat33_gradient () = check_gradient Rational.rat33 [| 1.0; 0.5; 0.2; 0.1; 0.1; 0.05; 0.01 |]
let test_cubic_ln_gradient () = check_gradient Cubic_ln.kernel [| 2.0; 1.0; 0.5; 0.1 |]
let test_exp_rat_gradient () = check_gradient Exp_rat.kernel [| 0.5; 0.2; 1.0; 0.1 |]
let test_poly25_gradient () = check_gradient Poly25.kernel [| 1.0; 0.5; 0.2; 0.1 |]

let test_catalogue_complete () =
  Alcotest.(check (list string))
    "table 1 order"
    [ "Rat22"; "Rat23"; "Rat33"; "CubicLn"; "ExpRat"; "Poly25" ]
    Catalogue.names

let test_catalogue_find () =
  Alcotest.(check bool) "finds Rat22" true (Catalogue.find "Rat22" <> None);
  Alcotest.(check bool) "rejects unknown" true (Catalogue.find "Spline" = None)

let test_arities () =
  let expect = [ ("Rat22", 5); ("Rat23", 6); ("Rat33", 7); ("CubicLn", 4); ("ExpRat", 4); ("Poly25", 4) ] in
  List.iter
    (fun (name, arity) ->
      match Catalogue.find name with
      | None -> Alcotest.failf "missing kernel %s" name
      | Some k -> Alcotest.(check int) name arity k.Kernel.arity)
    expect

(* Each kernel must recover data generated from itself (exact fit). *)
let roundtrip kernel params =
  let xs = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let ys = Array.map (kernel.Kernel.eval params) xs in
  match Fit.fit kernel ~xs ~ys with
  | None -> Alcotest.failf "%s: fit returned None" kernel.Kernel.name
  | Some fitted ->
      let scale = Float.max 1.0 (Vec.norm_inf ys) in
      Array.iter
        (fun x ->
          let want = kernel.Kernel.eval params x and got = fitted.Fit.eval x in
          if Float.abs (want -. got) > 1e-4 *. scale then
            Alcotest.failf "%s at %g: want %.8g got %.8g" kernel.Kernel.name x want got)
        xs

let test_roundtrip_rat22 () = roundtrip Rational.rat22 [| 5.0; 2.0; 0.3; 0.2; 0.01 |]
let test_roundtrip_cubic_ln () = roundtrip Cubic_ln.kernel [| 3.0; 2.0; -0.5; 0.05 |]
let test_roundtrip_exp_rat () = roundtrip Exp_rat.kernel [| 0.2; 0.4; 1.0; 0.08 |]
let test_roundtrip_poly25 () = roundtrip Poly25.kernel [| 10.0; 3.0; 0.5; 0.02 |]

let test_fit_scaling_invariance () =
  (* Fitting y and 1e9 * y must give proportional fits (normalisation works). *)
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let ys = Array.map (fun x -> 2.0 +. (0.3 *. x *. x)) xs in
  let big = Array.map (fun y -> 1e9 *. y) ys in
  match (Fit.fit Poly25.kernel ~xs ~ys, Fit.fit Poly25.kernel ~xs ~ys:big) with
  | Some a, Some b ->
      Array.iter
        (fun x -> check_float ~eps:1e-6 "proportional" (1e9 *. a.Fit.eval x) (b.Fit.eval x))
        [| 2.0; 8.0; 20.0; 48.0 |]
  | _ -> Alcotest.fail "fit failed"

let test_fit_too_few_points () =
  let xs = [| 1.0; 2.0; 3.0 |] and ys = [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check bool) "rat22 needs 5 points" true (Fit.fit Rational.rat22 ~xs ~ys = None)

let test_exp_rat_rejects_nonpositive () =
  let xs = Array.init 6 (fun i -> float_of_int (i + 1)) in
  let ys = [| 1.0; 2.0; -3.0; 4.0; 5.0; 6.0 |] in
  Alcotest.(check bool) "no guesses on negative data" true
    (Exp_rat.kernel.Kernel.initial_guesses ~xs ~ys = [])

let test_realism_rejects_pole () =
  (* A rational with a pole inside the extrapolation range is unrealistic. *)
  let params = [| 1.0; 0.0; 0.0; -0.1; 0.0 |] in
  (* denominator 1 - 0.1 n: pole at n = 10 *)
  let fitted = Fit.of_kernel Rational.rat22 params ~y_scale:1.0 ~fit_rmse:0.0 in
  Alcotest.(check bool) "pole inside range rejected" false
    (Fit.realistic fitted ~x_min:1.0 ~x_max:48.0 ~require_nonnegative:true);
  Alcotest.(check bool) "pole outside range accepted" true
    (Fit.realistic fitted ~x_min:1.0 ~x_max:8.0 ~require_nonnegative:true)

let test_realism_rejects_negative () =
  let fitted = Fit.of_closure "lin" [||] ~y_scale:1.0 ~fit_rmse:0.0 (fun x -> 5.0 -. x) in
  Alcotest.(check bool) "goes negative" false
    (Fit.realistic fitted ~x_min:1.0 ~x_max:48.0 ~require_nonnegative:true);
  Alcotest.(check bool) "negativity allowed when not required" true
    (Fit.realistic fitted ~x_min:1.0 ~x_max:48.0 ~require_nonnegative:false)

let test_fit_noisy_saturating_curve () =
  (* A saturating stall curve with mild deterministic noise: at least one
     kernel must fit with small relative RMSE. *)
  let xs = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let ys =
    Array.mapi
      (fun i x ->
        let clean = 1e6 *. (1.0 +. (3.0 *. x /. (x +. 6.0))) in
        clean *. (1.0 +. (0.01 *. sin (float_of_int i))))
      xs
  in
  let best =
    List.filter_map (fun k -> Fit.fit k ~xs ~ys) Catalogue.all
    |> List.sort (fun a b -> Float.compare a.Fit.fit_rmse b.Fit.fit_rmse)
  in
  match best with
  | [] -> Alcotest.fail "no kernel fitted"
  | f :: _ ->
      if f.Fit.fit_rmse > 0.02 *. 4e6 then
        Alcotest.failf "best fit too poor: %s rmse %.3g" f.Fit.kernel_name f.Fit.fit_rmse

let test_kernel_applicable () =
  Alcotest.(check bool) "5 points enough for rat22" true (Kernel.applicable Rational.rat22 ~npoints:5);
  Alcotest.(check bool) "4 points not enough" false (Kernel.applicable Rational.rat22 ~npoints:4)

(* The realism gate at its edges: a fit worth exactly 200 times
   max(y_scale, 1) in magnitude is realistic and the next float out is
   not; a fit at exactly -0.25 times max(y_scale, 1) is realistic for a
   cycle count and the next float down is not. *)
let test_realism_bounds_are_exact () =
  let constant ~y_scale v = Fit.of_closure "const" [||] ~y_scale ~fit_rmse:0.0 (fun _ -> v) in
  List.iter
    (fun y_scale ->
      let bound = 200.0 *. y_scale and slack = -0.25 *. y_scale in
      let check what ~require_nonnegative expected v =
        Alcotest.(check bool)
          (Printf.sprintf "y_scale %g: %s (%h)" y_scale what v)
          expected
          (Fit.realistic (constant ~y_scale v) ~x_min:1.0 ~x_max:48.0 ~require_nonnegative)
      in
      check "at the explosion bound" ~require_nonnegative:false true bound;
      check "just above the explosion bound" ~require_nonnegative:false false (Float.succ bound);
      check "at minus the explosion bound" ~require_nonnegative:false true (-.bound);
      check "just below minus the explosion bound" ~require_nonnegative:false false (Float.pred (-.bound));
      check "at the negative slack" ~require_nonnegative:true true slack;
      check "just below the negative slack" ~require_nonnegative:true false (Float.pred slack);
      check "below the slack, sign not required" ~require_nonnegative:false true (Float.pred slack))
    [ 1.0; 3.0 ]

let suite =
  [
    ("rat22 gradient", `Quick, test_rat22_gradient);
    ("rat23 gradient", `Quick, test_rat23_gradient);
    ("rat33 gradient", `Quick, test_rat33_gradient);
    ("cubic_ln gradient", `Quick, test_cubic_ln_gradient);
    ("exp_rat gradient", `Quick, test_exp_rat_gradient);
    ("poly25 gradient", `Quick, test_poly25_gradient);
    ("catalogue complete", `Quick, test_catalogue_complete);
    ("catalogue find", `Quick, test_catalogue_find);
    ("arities", `Quick, test_arities);
    ("roundtrip rat22", `Quick, test_roundtrip_rat22);
    ("roundtrip cubic_ln", `Quick, test_roundtrip_cubic_ln);
    ("roundtrip exp_rat", `Quick, test_roundtrip_exp_rat);
    ("roundtrip poly25", `Quick, test_roundtrip_poly25);
    ("fit scaling invariance", `Quick, test_fit_scaling_invariance);
    ("fit too few points", `Quick, test_fit_too_few_points);
    ("exp_rat rejects nonpositive", `Quick, test_exp_rat_rejects_nonpositive);
    ("realism rejects pole", `Quick, test_realism_rejects_pole);
    ("realism rejects negative", `Quick, test_realism_rejects_negative);
    ("fit noisy saturating curve", `Quick, test_fit_noisy_saturating_curve);
    ("kernel applicable", `Quick, test_kernel_applicable);
    ("realism bounds are exact", `Quick, test_realism_bounds_are_exact);
  ]
