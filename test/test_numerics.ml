(* Unit and property tests for the estima_numerics substrate. *)

open Estima_numerics

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_float ?(eps = 1e-9) what expected actual =
  if not (approx ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" what expected actual

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 8 (fun _ -> Rng.int64 a) in
  let ys = List.init 8 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "different seeds diverge" true (xs <> ys)

let test_rng_float_range () =
  let t = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.float t in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of range: %g" x
  done

let test_rng_float_mean () =
  let t = Rng.create 11 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float t
  done;
  let mean = !acc /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.01 then Alcotest.failf "uniform mean off: %g" mean

let test_rng_int_bounds () =
  let t = Rng.create 3 in
  let seen = Array.make 10 false in
  for _ = 1 to 5_000 do
    let v = Rng.int t 10 in
    if v < 0 || v >= 10 then Alcotest.failf "int out of range: %d" v;
    seen.(v) <- true
  done;
  Alcotest.(check bool) "all buckets hit" true (Array.for_all Fun.id seen)

let test_rng_int_invalid () =
  let t = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int t 0))

let test_rng_split_independent () =
  let parent = Rng.create 99 in
  let child = Rng.split parent in
  let xs = List.init 16 (fun _ -> Rng.int64 parent) in
  let ys = List.init 16 (fun _ -> Rng.int64 child) in
  Alcotest.(check bool) "split streams diverge" true (xs <> ys)

let test_rng_gaussian_moments () =
  let t = Rng.create 13 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian t ~mu:2.0 ~sigma:3.0) in
  let m = Stats.mean xs and s = Stats.std_dev xs in
  if Float.abs (m -. 2.0) > 0.1 then Alcotest.failf "gaussian mean off: %g" m;
  if Float.abs (s -. 3.0) > 0.1 then Alcotest.failf "gaussian sigma off: %g" s

let test_rng_bool_extremes () =
  let t = Rng.create 23 in
  Alcotest.(check bool) "p=0 never" false (Rng.bool t 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bool t 1.0)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_ops () =
  let a = Vec.of_list [ 1.0; 2.0; 3.0 ] and b = Vec.of_list [ 4.0; 5.0; 6.0 ] in
  check_float "dot" 32.0 (Vec.dot a b);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 a);
  check_float "norm_inf" 3.0 (Vec.norm_inf a);
  check_float "sum" 6.0 (Vec.sum a);
  Alcotest.(check (array (float 1e-12))) "add" [| 5.0; 7.0; 9.0 |] (Vec.add a b);
  Alcotest.(check (array (float 1e-12))) "sub" [| -3.0; -3.0; -3.0 |] (Vec.sub a b);
  Alcotest.(check (array (float 1e-12))) "scale" [| 2.0; 4.0; 6.0 |] (Vec.scale 2.0 a)

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch" (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

let test_vec_finite () =
  Alcotest.(check bool) "finite" true (Vec.all_finite [| 1.0; -2.0 |]);
  Alcotest.(check bool) "nan" false (Vec.all_finite [| 1.0; Float.nan |]);
  Alcotest.(check bool) "inf" false (Vec.all_finite [| Float.infinity |])

let test_vec_minmax () =
  let v = Vec.of_list [ 3.0; -1.0; 7.0 ] in
  check_float "max" 7.0 (Vec.max_elt v);
  check_float "min" (-1.0) (Vec.min_elt v)

(* ------------------------------------------------------------------ *)
(* Mat                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mat_mul () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  check_float "c00" 19.0 (Mat.get c 0 0);
  check_float "c01" 22.0 (Mat.get c 0 1);
  check_float "c10" 43.0 (Mat.get c 1 0);
  check_float "c11" 50.0 (Mat.get c 1 1)

let test_mat_transpose () =
  let a = Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Mat.transpose a in
  Alcotest.(check int) "rows" 3 (Mat.rows t);
  Alcotest.(check int) "cols" 2 (Mat.cols t);
  check_float "t(2,1)" 6.0 (Mat.get t 2 1)

let test_mat_mul_vec () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 1e-12))) "mul_vec" [| 5.0; 11.0 |] (Mat.mul_vec a [| 1.0; 2.0 |])

let test_mat_identity () =
  let i3 = Mat.identity 3 in
  let a = Mat.of_arrays [| [| 1.0; 2.0; 0.0 |]; [| 0.0; 1.0; 5.0 |]; [| 7.0; 0.0; 1.0 |] |] in
  let prod = Mat.mul a i3 in
  Alcotest.(check (array (array (float 1e-12)))) "a * I = a" (Mat.to_arrays a) (Mat.to_arrays prod)

let test_mat_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_arrays: ragged rows") (fun () ->
      ignore (Mat.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

(* ------------------------------------------------------------------ *)
(* Qr                                                                  *)
(* ------------------------------------------------------------------ *)

let test_qr_square_solve () =
  let a = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Qr.solve_square a [| 5.0; 10.0 |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 3.0 x.(1)

let test_qr_least_squares_line () =
  (* Fit y = 2x + 1 exactly through noiseless points. *)
  let xs = [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  let a = Mat.init 5 2 (fun i j -> if j = 0 then 1.0 else xs.(i)) in
  let b = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  let c = Qr.solve_least_squares a b in
  check_float "intercept" 1.0 c.(0);
  check_float "slope" 2.0 c.(1)

let test_qr_least_squares_overdetermined () =
  (* Residual must be orthogonal to the column space. *)
  let a = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 1.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let b = [| 1.0; 0.0; 2.0 |] in
  let x = Qr.solve_least_squares a b in
  let r = Vec.sub (Mat.mul_vec a x) b in
  let at_r = Mat.mul_vec (Mat.transpose a) r in
  if Vec.norm_inf at_r > 1e-9 then Alcotest.failf "normal equations violated: %g" (Vec.norm_inf at_r)

let test_qr_singular () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |]; [| 3.0; 6.0 |] |] in
  Alcotest.check_raises "singular" Qr.Singular (fun () ->
      ignore (Qr.solve_least_squares a [| 1.0; 2.0; 3.0 |]))

let test_qr_decompose_reconstructs () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  let q, r = Qr.decompose a in
  let qr = Mat.mul q r in
  Array.iteri
    (fun i row -> Array.iteri (fun j v -> check_float ~eps:1e-9 (Printf.sprintf "qr(%d,%d)" i j) v (Mat.get qr i j)) row)
    (Mat.to_arrays a);
  (* Q orthogonal: Q^T Q = I. *)
  let qtq = Mat.mul (Mat.transpose q) q in
  for i = 0 to 2 do
    for j = 0 to 2 do
      check_float ~eps:1e-9 "orthogonality" (if i = j then 1.0 else 0.0) (Mat.get qtq i j)
    done
  done

let test_qr_underdetermined_rejected () =
  let a = Mat.of_arrays [| [| 1.0; 2.0; 3.0 |] |] in
  Alcotest.check_raises "underdetermined"
    (Invalid_argument "Qr.solve_least_squares: underdetermined system") (fun () ->
      ignore (Qr.solve_least_squares a [| 1.0 |]));
  (* solve_in_place indexes unchecked, so it must refuse every short
     buffer up front. *)
  let buf n = Array.make n 1.0 in
  List.iter
    (fun (what, rows, band, a, b, reflector, x) ->
      Alcotest.check_raises what (Invalid_argument "Qr.solve_in_place: bad dimensions") (fun () ->
          Qr.solve_in_place ~rows ~cols:2 ~band a b ~reflector x))
    [
      ("underdetermined", 1, 1, buf 2, buf 1, buf 1, buf 2);
      ("negative band", 3, -1, buf 6, buf 3, buf 3, buf 2);
      ("short matrix", 3, 3, buf 5, buf 3, buf 3, buf 2);
      ("short right-hand side", 3, 3, buf 6, buf 2, buf 3, buf 2);
      ("short reflector", 3, 3, buf 6, buf 3, buf 2, buf 2);
      ("short solution", 3, 3, buf 6, buf 3, buf 3, buf 1);
    ]

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean xs);
  check_float "std" 2.0 (Stats.std_dev xs)

let test_stats_rmse () =
  check_float "rmse" 1.0 (Stats.rmse [| 1.0; 3.0 |] [| 2.0; 4.0 |]);
  check_float "rmse mixed" (sqrt 2.5) (Stats.rmse [| 0.0; 0.0 |] [| 1.0; 2.0 |]);
  check_float "rmse zero" 0.0 (Stats.rmse [| 1.0; 2.0 |] [| 1.0; 2.0 |])

let test_stats_pearson_perfect () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (3.0 *. x) +. 1.0) xs in
  check_float "perfect positive" 1.0 (Stats.pearson xs ys);
  let zs = Array.map (fun x -> -.x) xs in
  check_float "perfect negative" (-1.0) (Stats.pearson xs zs)

let test_stats_pearson_constant_nan () =
  let r = Stats.pearson [| 1.0; 1.0; 1.0 |] [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check bool) "constant gives nan" true (Float.is_nan r)

let test_stats_quantile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "median" 2.5 (Stats.quantile 0.5 xs);
  check_float "min" 1.0 (Stats.quantile 0.0 xs);
  check_float "max" 4.0 (Stats.quantile 1.0 xs)

let test_stats_argminmax () =
  let xs = [| 3.0; 1.0; 4.0; 1.0; 5.0 |] in
  Alcotest.(check int) "argmax" 4 (Stats.argmax xs);
  Alcotest.(check int) "argmin" 1 (Stats.argmin xs)

(* ------------------------------------------------------------------ *)
(* Linear_fit                                                          *)
(* ------------------------------------------------------------------ *)

let test_linear_fit_polynomial_exact () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let ys = Array.map (fun x -> 2.0 +. (3.0 *. x) -. (0.5 *. x *. x)) xs in
  let c = Linear_fit.polynomial ~degree:2 ~xs ~ys in
  check_float "c0" 2.0 c.(0);
  check_float "c1" 3.0 c.(1);
  check_float "c2" (-0.5) c.(2);
  check_float "eval" (2.0 +. 30.0 -. 50.0) (Linear_fit.eval_polynomial c 10.0)

let test_linear_fit_custom_basis () =
  let xs = [| 1.0; 2.0; 4.0; 8.0 |] in
  let ys = Array.map (fun x -> 1.5 +. (2.0 *. log x)) xs in
  let c = Linear_fit.fit ~basis:[| (fun _ -> 1.0); log |] ~xs ~ys in
  check_float "a" 1.5 c.(0);
  check_float "b" 2.0 c.(1)

let test_linear_fit_too_few_points () =
  Alcotest.check_raises "too few" (Invalid_argument "Linear_fit.fit: fewer points than basis functions")
    (fun () -> ignore (Linear_fit.polynomial ~degree:3 ~xs:[| 1.0; 2.0 |] ~ys:[| 1.0; 2.0 |]))

(* ------------------------------------------------------------------ *)
(* Lm                                                                  *)
(* ------------------------------------------------------------------ *)

(* An objective over [residual], which returns [residuals] values, with
   its finite-difference Jacobian. *)
let fd_objective ~residuals residual =
  let residual_into p r = Array.blit (residual p) 0 r 0 residuals in
  let jacobian_into p jac =
    let fd = Lm.finite_difference_jacobian residual p in
    let n = Mat.cols fd in
    for i = 0 to residuals - 1 do
      for j = 0 to n - 1 do
        jac.((i * n) + j) <- Mat.get fd i j
      done
    done
  in
  Lm.objective ~residuals ~residual_into ~jacobian_into

let rosenbrock_objective =
  (* Classic Rosenbrock in residual form: r = (1-a, 10(b-a^2)). *)
  fd_objective ~residuals:2 (fun p -> [| 1.0 -. p.(0); 10.0 *. (p.(1) -. (p.(0) *. p.(0))) |])

let test_lm_rosenbrock () =
  let result = Lm.minimize rosenbrock_objective ~init:[| -1.2; 1.0 |] in
  check_float ~eps:1e-5 "a" 1.0 result.params.(0);
  check_float ~eps:1e-5 "b" 1.0 result.params.(1);
  if result.cost > 1e-10 then Alcotest.failf "cost not near zero: %g" result.cost

let test_lm_exponential_fit () =
  (* Fit y = a * exp(b x) on exact data. *)
  let xs = [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> 2.0 *. exp (0.5 *. x)) xs in
  let residual p = Array.mapi (fun i x -> (p.(0) *. exp (p.(1) *. x)) -. ys.(i)) xs in
  let objective = fd_objective ~residuals:5 residual in
  let result = Lm.minimize objective ~init:[| 1.0; 0.1 |] in
  check_float ~eps:1e-6 "a" 2.0 result.params.(0);
  check_float ~eps:1e-6 "b" 0.5 result.params.(1)

let test_lm_linear_exact_one_hop () =
  (* A linear residual should converge essentially immediately. *)
  let objective = fd_objective ~residuals:2 (fun p -> [| p.(0) -. 3.0; p.(1) +. 4.0 |]) in
  let result = Lm.minimize objective ~init:[| 0.0; 0.0 |] in
  Alcotest.(check bool) "converged" true (result.outcome = Lm.Converged);
  check_float ~eps:1e-8 "p0" 3.0 result.params.(0);
  check_float ~eps:1e-8 "p1" (-4.0) result.params.(1)

let test_lm_pole_recovery () =
  (* Model with a pole at p = x: trial steps into the pole produce non-finite
     residuals, which must be rejected rather than crash. *)
  let xs = [| 1.0; 2.0; 3.0 |] in
  let ys = Array.map (fun x -> 1.0 /. (x +. 0.5)) xs in
  let residual p = Array.mapi (fun i x -> (1.0 /. (x +. p.(0))) -. ys.(i)) xs in
  let objective = fd_objective ~residuals:3 residual in
  let result = Lm.minimize objective ~init:[| 2.0 |] in
  check_float ~eps:1e-6 "pole offset" 0.5 result.params.(0)

let test_lm_nonfinite_init_rejected () =
  let objective = fd_objective ~residuals:1 (fun p -> [| 1.0 /. p.(0) |]) in
  Alcotest.check_raises "non-finite init"
    (Invalid_argument "Lm.minimize: non-finite residual at initial point") (fun () ->
      ignore (Lm.minimize objective ~init:[| 0.0 |]))

let test_lm_finite_difference_accuracy () =
  let residual p = [| p.(0) *. p.(0); sin p.(1); p.(0) *. p.(1) |] in
  let p = [| 1.5; 0.7 |] in
  let jac = Lm.finite_difference_jacobian residual p in
  check_float ~eps:1e-6 "d(r0)/d(p0)" 3.0 (Mat.get jac 0 0);
  check_float ~eps:1e-6 "d(r1)/d(p1)" (cos 0.7) (Mat.get jac 1 1);
  check_float ~eps:1e-6 "d(r2)/d(p0)" 0.7 (Mat.get jac 2 0);
  check_float ~eps:1e-6 "d(r2)/d(p1)" 1.5 (Mat.get jac 2 1)

let suite =
  [
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng seeds differ", `Quick, test_rng_seeds_differ);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng float mean", `Quick, test_rng_float_mean);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int invalid", `Quick, test_rng_int_invalid);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng gaussian moments", `Quick, test_rng_gaussian_moments);
    ("rng bool extremes", `Quick, test_rng_bool_extremes);
    ("vec ops", `Quick, test_vec_ops);
    ("vec mismatch", `Quick, test_vec_mismatch);
    ("vec finite", `Quick, test_vec_finite);
    ("vec minmax", `Quick, test_vec_minmax);
    ("mat mul", `Quick, test_mat_mul);
    ("mat transpose", `Quick, test_mat_transpose);
    ("mat mul_vec", `Quick, test_mat_mul_vec);
    ("mat identity", `Quick, test_mat_identity);
    ("mat ragged", `Quick, test_mat_ragged);
    ("qr square solve", `Quick, test_qr_square_solve);
    ("qr least squares line", `Quick, test_qr_least_squares_line);
    ("qr overdetermined residual", `Quick, test_qr_least_squares_overdetermined);
    ("qr singular", `Quick, test_qr_singular);
    ("qr decompose reconstructs", `Quick, test_qr_decompose_reconstructs);
    ("qr underdetermined rejected", `Quick, test_qr_underdetermined_rejected);
    ("stats basic", `Quick, test_stats_basic);
    ("stats rmse", `Quick, test_stats_rmse);
    ("stats pearson perfect", `Quick, test_stats_pearson_perfect);
    ("stats pearson constant nan", `Quick, test_stats_pearson_constant_nan);
    ("stats quantile", `Quick, test_stats_quantile);
    ("stats argminmax", `Quick, test_stats_argminmax);
    ("linear fit polynomial exact", `Quick, test_linear_fit_polynomial_exact);
    ("linear fit custom basis", `Quick, test_linear_fit_custom_basis);
    ("linear fit too few points", `Quick, test_linear_fit_too_few_points);
    ("lm rosenbrock", `Quick, test_lm_rosenbrock);
    ("lm exponential fit", `Quick, test_lm_exponential_fit);
    ("lm linear exact", `Quick, test_lm_linear_exact_one_hop);
    ("lm pole recovery", `Quick, test_lm_pole_recovery);
    ("lm nonfinite init rejected", `Quick, test_lm_nonfinite_init_rejected);
    ("lm finite difference accuracy", `Quick, test_lm_finite_difference_accuracy);
  ]
