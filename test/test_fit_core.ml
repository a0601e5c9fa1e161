(* The fit core against its reference: Lm.minimize over the kernels'
   staged objectives, and Qr, must return the bits the allocating
   implementation in Fit_core_reference returned over the per-point
   eval/gradient objectives, and an Lm.minimize iteration must allocate
   nothing.  Fit.realistic's batched scan must give the per-point scan's
   verdicts, a fit's batched values must be its [eval]'s bits, and a scan
   must allocate nothing. *)

open Estima_numerics
open Estima_kernels
module Reference = Fit_core_reference

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* A measured series at integer core counts, 3 to 12 points.  Besides
   smooth curves it makes data with a pole just past or inside the window
   and plain noise, which drive the rational kernels' trial steps onto
   poles (non-finite residuals) and uphill (rejected steps). *)
type series = { xs : float array; ys : float array }

let hex a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a))

let print_series { xs; ys } = Printf.sprintf "xs = %s; ys = %s" (hex xs) (hex ys)

let series_gen =
  let open QCheck.Gen in
  let* n = int_range 3 12 in
  let* first = int_range 1 4 and* gaps = list_repeat (n - 1) (int_range 1 8) in
  let cores = List.fold_left (fun acc gap -> (List.hd acc + gap) :: acc) [ first ] gaps in
  let xs = Array.of_list (List.rev_map float_of_int cores) in
  let x0 = xs.(0) and last = xs.(n - 1) in
  let* shape = int_range 0 3
  and* a = float_range 0.1 10.0
  and* b = float_range (-2.0) 2.0
  and* t = float_range 0.0 1.0
  and* noise = array_repeat n (float_range (-0.05) 0.05)
  and* raw = array_repeat n (float_range (-100.0) 100.0) in
  let y i x =
    match shape with
    | 0 -> (a +. (b *. x) +. (0.01 *. x *. x)) *. (1.0 +. noise.(i))
    | 1 (* a pole just past the window *) -> a /. (last +. 0.05 +. (1.45 *. t) -. x) *. (1.0 +. noise.(i))
    | 2 (* a pole between two core counts *) -> a /. (x0 +. 0.5 +. ((last -. x0 -. 1.0) *. t) -. x)
    | _ -> raw.(i)
  in
  return { xs; ys = Array.mapi y xs }

let series = QCheck.make ~print:print_series series_gen

(* What Fit.fit hands Lm: the data scaled to a unit maximum. *)
let normalised ys =
  let m = Vec.norm_inf ys in
  if m > 0.0 then Array.map (fun y -> y /. m) ys else ys

(* ------------------------------------------------------------------ *)
(* Bit-for-bit comparison                                              *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

let same_floats a b = Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let same_result (r : Lm.result) (e : Lm.result) =
  same_floats r.params e.params && bits r.cost = bits e.cost && r.iterations = e.iterations
  && r.outcome = e.outcome

(* Trial-step kinds the library's runs reached, counted from their residual
   calls: in each run the first call is the start, every later one a trial
   step. *)
type reach = { mutable non_finite : int; mutable rejected : int; mutable accepted : int }

let reach = { non_finite = 0; rejected = 0; accepted = 0 }

let observed (objective : Lm.objective) =
  let best = ref Float.nan in
  let residual_into p r =
    objective.Lm.residual_into p r;
    let cost = 0.5 *. Vec.dot r r in
    if Float.is_nan !best then best := cost
    else if not (Vec.all_finite r) then reach.non_finite <- reach.non_finite + 1
    else if cost < !best then begin
      best := cost;
      reach.accepted <- reach.accepted + 1
    end
    else reach.rejected <- reach.rejected + 1
  in
  Lm.objective ~residuals:objective.Lm.residuals ~residual_into ~jacobian_into:objective.Lm.jacobian_into

let minimize_both objective reference ~init =
  let run f = match f () with r -> Ok r | exception Invalid_argument msg -> Error msg in
  ( run (fun () -> Lm.minimize (observed objective) ~init),
    run (fun () -> Reference.minimize reference ~init) )

let agree = function
  | Ok r, Ok e -> same_result r e
  | Error a, Error b -> String.equal a b
  | Ok _, Error _ | Error _, Ok _ -> false

(* Each nonlinear kernel with the per-point gradient it carried. *)
let nonlinear_kernels =
  [
    (Rational.rat22, Reference.rational_gradient ~num_degree:2 ~den_degree:2);
    (Rational.rat23, Reference.rational_gradient ~num_degree:2 ~den_degree:3);
    (Rational.rat33, Reference.rational_gradient ~num_degree:3 ~den_degree:3);
    (Exp_rat.kernel, Reference.exp_rat_gradient);
  ]

(* Every start Fit.fit would make, plus the same residuals under a
   finite-difference Jacobian from the first start. *)
let fit_core_agrees { xs; ys } =
  let ys = normalised ys in
  List.for_all
    (fun ((kernel : Kernel.t), gradient) ->
      let objective = Kernel.residual_objective kernel ~xs ~ys in
      let reference = Reference.residual_objective kernel ~gradient ~xs ~ys in
      let finite init = Vec.all_finite (objective.Lm.residual init) in
      let guesses = List.filter finite (kernel.Kernel.initial_guesses ~xs ~ys) in
      let fd = Test_numerics.fd_objective ~residuals:(Array.length xs) objective.Lm.residual in
      let reference_fd =
        { reference with Reference.jacobian = Lm.finite_difference_jacobian reference.Reference.residual }
      in
      List.for_all (fun init -> agree (minimize_both objective reference ~init)) guesses
      && match guesses with init :: _ -> agree (minimize_both fd reference_fd ~init) | [] -> true)
    nonlinear_kernels

let prop_lm_bit_identical =
  QCheck.Test.make ~count:150 ~name:"lm matches the reference bit for bit" series fit_core_agrees

(* Random systems of up to [cols] columns and [rows] rows, rank-deficient
   ones included (a repeated, scaled or zero column), sometimes with a
   non-finite entry. *)
let system_gen_upto ~cols ~rows =
  let open QCheck.Gen in
  let* n = int_range 1 cols in
  let* m = int_range n rows in
  let* cells = array_repeat (m * n) (float_range (-10.0) 10.0)
  and* rhs = array_repeat m (float_range (-10.0) 10.0)
  and* defect = int_range 0 5
  and* col = int_range 0 (n - 1) in
  let cell i j = cells.((i * n) + j) in
  let entry i j =
    match defect with
    | 0 when n > 1 && j = col -> cell i ((col + 1) mod n)
    | 1 when n > 1 && j = col -> 3.0 *. cell i ((col + 1) mod n)
    | 2 when j = col -> 0.0
    | 3 when i = 0 && j = col -> Float.nan
    | _ -> cell i j
  in
  return (Mat.init m n entry, rhs)

let system_gen = system_gen_upto ~cols:7 ~rows:19

let system_of gen =
  let rows a = String.concat " | " (Array.to_list (Array.map hex (Mat.to_arrays a))) in
  QCheck.make ~print:(fun (a, b) -> Printf.sprintf "a = %s; b = %s" (rows a) (hex b)) gen

let system = system_of system_gen

let solved solve (a, b) = match solve a b with x -> Some x | exception Qr.Singular -> None

let qr_agrees system =
  match (solved Qr.solve_least_squares system, solved Reference.Qr.solve_least_squares system) with
  | Some x, Some y -> same_floats x y
  | None, None -> true
  | Some _, None | None, Some _ -> false

let prop_qr_bit_identical =
  QCheck.Test.make ~count:300 ~name:"qr matches the reference bit for bit" system qr_agrees

(* The damped step Lm.minimize solves, [[J; sqrt(lambda diag)] p = [-r; 0]]:
   Lm sweeps only the band of rows each reflector can reach, and must
   return what Qr's solve over every row returns.  The Jacobian's cells
   run from signed zeros and subnormals through values whose squares
   underflow (1e-170) to values whose squares overflow, so some column
   scales, and through them some damping entries, are infinite; large but
   finite cells and a right-hand side up to 1e300 overflow some reflector
   scales, and a zero column makes some systems singular. *)
let damped_gen =
  let open QCheck.Gen in
  let signed g = map2 ( *. ) (oneofl [ 1.0; -1.0 ]) g in
  let* n = int_range 1 7 in
  let* m = int_range n (n + 7) in
  let* large = oneofl [ 0; 3 ] and* huge = oneofl [ 0; 0; 2 ] and* k = int_range (-12) 12 in
  let* zero = int_range (-n) (n - 1) in
  let cell =
    frequency
      [
        (24, float_range (-10.0) 10.0);
        (3, oneofl [ 0.0; -0.0; 4.9e-324; -2.5e-320; 2.2e-310; 1e-170; -1e-170 ]);
        (large, signed (map (fun e -> 10.0 ** e) (float_range 5.0 150.0)));
        (huge, signed (map (fun e -> 10.0 ** e) (float_range 154.0 200.0)));
        (huge, signed (return 1.7e308));
      ]
  and rhs = frequency [ (3, float_range (-10.0) 10.0); (1, signed (map (fun e -> 10.0 ** e) (float_range 0.0 300.0))) ] in
  let* cells = array_repeat (m * n) cell and* r = array_repeat m rhs in
  let entry i j = if j = zero then 0.0 else cells.((i * n) + j) in
  return (Mat.init m n entry, r, 10.0 ** float_of_int k)

let print_damped (jacobian, r, lambda) =
  let rows = String.concat " | " (Array.to_list (Array.map hex (Mat.to_arrays jacobian))) in
  Printf.sprintf "jacobian = %s; r = %s; lambda = %h" rows (hex r) lambda

let damped = QCheck.make ~print:print_damped damped_gen

(* The stacked system as Lm builds it, row-major, with its right-hand side
   and whether every damping entry is finite. *)
let stacked (jacobian, r, lambda) =
  let m = Mat.rows jacobian and n = Mat.cols jacobian in
  let a = Array.make ((m + n) * n) 0.0 and b = Array.make (m + n) 0.0 in
  let finite = ref true in
  for j = 0 to n - 1 do
    let d = ref 0.0 in
    for i = 0 to m - 1 do
      let v = Mat.get jacobian i j in
      a.((i * n) + j) <- v;
      d := !d +. (v *. v)
    done;
    let damping = sqrt (lambda *. Float.max !d 1e-30) in
    a.(((m + j) * n) + j) <- damping;
    finite := !finite && Float.is_finite damping
  done;
  Array.iteri (fun i v -> b.(i) <- -.v) r;
  (a, b, !finite)

(* Qr's solve of the stacked system with reflectors over [band] rows. *)
let qr_step ~band ((jacobian, _, _) as system) =
  let m = Mat.rows jacobian and n = Mat.cols jacobian in
  let a, b, _ = stacked system in
  let x = Array.make n 0.0 in
  match Qr.solve_in_place ~rows:(m + n) ~cols:n ~band a b ~reflector:(Array.make (m + n) 0.0) x with
  | () -> Some x
  | exception Qr.Singular -> None

let lm_step (jacobian, r, lambda) =
  match Lm.damped_step ~jacobian ~residual:r ~lambda with x -> Some x | exception Qr.Singular -> None

let same_step a b =
  match (a, b) with
  | Some x, Some y -> same_floats x y
  | None, None -> true
  | Some _, None | None, Some _ -> false

let band_agrees ((jacobian, _, _) as system) =
  same_step (lm_step system) (qr_step ~band:(Mat.rows jacobian + Mat.cols jacobian) system)

let prop_band_bit_identical =
  QCheck.Test.make ~count:1000 ~name:"the banded damped step matches the dense one bit for bit" damped
    band_agrees

(* Which solve Lm's step took: the band's, or the solve over every row,
   because a damping entry is infinite or the band's step came out
   non-finite or singular. *)
type path = Band | Infinite_damping | Poisoned_band

let path ((jacobian, _, _) as system) =
  let _, _, finite = stacked system in
  if not finite then Infinite_damping
  else
    match qr_step ~band:(Mat.rows jacobian) system with
    | Some x when Vec.all_finite x -> Band
    | Some _ | None -> Poisoned_band

(* The properties are only as strong as the branches their inputs reach:
   a fixed sample of each generator must agree and reach non-finite,
   rejected and accepted trial steps, singular and solvable systems, and
   each of the damped step's three solves. *)
let test_inputs_reach_every_branch () =
  reach.non_finite <- 0;
  reach.rejected <- 0;
  reach.accepted <- 0;
  let sample gen = QCheck.Gen.generate ~rand:(Random.State.make [| 13 |]) ~n:60 gen in
  List.iter
    (fun s -> if not (fit_core_agrees s) then Alcotest.failf "differs on %s" (print_series s))
    (sample series_gen);
  if reach.non_finite = 0 || reach.rejected = 0 || reach.accepted = 0 then
    Alcotest.failf "trial steps: %d non-finite, %d rejected, %d accepted" reach.non_finite reach.rejected
      reach.accepted;
  let systems = sample system_gen in
  List.iter (fun s -> if not (qr_agrees s) then Alcotest.fail "qr differs") systems;
  let singular = List.length (List.filter (fun s -> solved Qr.solve_least_squares s = None) systems) in
  if singular = 0 || singular = List.length systems then
    Alcotest.failf "%d of %d systems singular" singular (List.length systems);
  let damped = QCheck.Gen.generate ~rand:(Random.State.make [| 13 |]) ~n:300 damped_gen in
  List.iter (fun s -> if not (band_agrees s) then Alcotest.failf "band differs on %s" (print_damped s)) damped;
  let count p = List.length (List.filter (fun s -> path s = p) damped) in
  let band = count Band and infinite = count Infinite_damping and poisoned = count Poisoned_band in
  if band = 0 || infinite = 0 || poisoned = 0 then
    Alcotest.failf "damped steps: %d band, %d infinite damping, %d poisoned band" band infinite poisoned

(* Qr's reflectors take the trailing columns four at a time and the last
   0-3 with the right-hand side: up to 12 columns put two full blocks and
   every tail width through the dense solve. *)
let prop_wide_qr_bit_identical =
  QCheck.Test.make ~count:300 ~name:"wide qr matches the reference bit for bit"
    (system_of (system_gen_upto ~cols:12 ~rows:24))
    qr_agrees

(* Lm's damped step against the reference's dense allocating solve of the
   same stacked system: a fault the band and the dense solve shared would
   pass "the banded damped step matches the dense one" but not this. *)
let reference_step (jacobian, r, lambda) =
  match Reference.solve_damped_step jacobian r lambda with x -> Some x | exception Qr.Singular -> None

let prop_damped_step_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"the damped step matches the reference bit for bit" damped
    (fun system -> same_step (lm_step system) (reference_step system))

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Rat33 on eight measured points, from its first start. *)
let rat33_problem () =
  let xs = [| 1.0; 2.0; 4.0; 6.0; 8.0; 12.0; 16.0; 24.0 |] in
  let ys = normalised [| 0.9; 1.7; 3.1; 4.6; 5.6; 8.9; 10.2; 17.5 |] in
  let objective = Kernel.residual_objective Rational.rat33 ~xs ~ys in
  (objective, List.hd (Rational.rat33.Kernel.initial_guesses ~xs ~ys))

(* Words allocated by one Lm.minimize call capped at [cap] iterations. *)
let allocated_by ~cap =
  let objective, init = rat33_problem () in
  let options = { Lm.default_options with Lm.max_iterations = cap } in
  let w0 = Gc.minor_words () in
  let r = Lm.minimize ~options objective ~init in
  (r, Gc.minor_words () -. w0)

(* The workspace is the call's only allocation, so a run twice as long
   allocates exactly as much. *)
let test_lm_iterations_allocate_nothing () =
  let uncapped, _ = allocated_by ~cap:Lm.default_options.Lm.max_iterations in
  let k = uncapped.Lm.iterations / 4 in
  if uncapped.Lm.outcome <> Lm.Converged || k < 1 then
    Alcotest.failf "the fixture converges in %d iterations" uncapped.Lm.iterations;
  let short, short_words = allocated_by ~cap:k and long, long_words = allocated_by ~cap:(2 * k) in
  List.iter
    (fun (r : Lm.result) -> if r.Lm.outcome <> Lm.Max_iterations then Alcotest.fail "a capped run stopped early")
    [ short; long ];
  if long_words <> short_words then
    Alcotest.failf "%d iterations allocate %.0f words, %d iterations %.0f" k short_words (2 * k) long_words

(* ------------------------------------------------------------------ *)
(* The batched values pass                                             *)
(* ------------------------------------------------------------------ *)

(* What a fit is: a kernel (the catalogue's, or its skewed copy the
   perturbed accuracy gate fits) with coefficients, or one of the three
   closures the pipeline builds fits from. *)
type fit_kind = Of_kernel of Kernel.t | Polynomial | Constant | Zero

let fit_kinds =
  Array.of_list
    (List.map (fun k -> Of_kernel k) (Catalogue.all @ Estima_validate.Gate.perturbed_kernels ())
    @ [ Polynomial; Constant; Zero ])

let kind_name = function
  | Of_kernel k -> k.Kernel.name
  | Polynomial -> "PolyFallback"
  | Constant -> "ConstantFactor"
  | Zero -> "Zero"

(* The fit as the library builds it: Fit.fit's result for a kernel, and
   the polynomial fallback, constant factor and zero category through
   Fit.of_closure, as Approximation, Scaling_factor and Extrapolation
   build them. *)
let fitted_of kind params ~y_scale =
  let closure eval = Fit.of_closure (kind_name kind) params ~y_scale ~fit_rmse:0.0 eval in
  match kind with
  | Of_kernel k -> Fit.of_kernel k params ~y_scale ~fit_rmse:0.0
  | Polynomial -> closure (Linear_fit.eval_polynomial params)
  | Constant -> closure (fun _ -> params.(0))
  | Zero -> closure (fun _ -> 0.0)

let arity = function Of_kernel k -> k.Kernel.arity | Polynomial -> 3 | Constant -> 1 | Zero -> 0

let signed g = QCheck.Gen.(map2 ( *. ) (oneofl [ 1.0; -1.0 ]) g)

let magnitude = QCheck.Gen.(map (fun e -> 10.0 ** e) (float_range (-300.0) 300.0))

(* Coefficients: ordinary, tiny or huge (to 1e300), either zero, infinite
   or NaN. *)
let coefficient =
  QCheck.Gen.(
    frequency
      [
        (16, float_range (-10.0) 10.0);
        (3, signed magnitude);
        (1, oneofl [ 0.0; -0.0 ]);
        (1, oneofl [ Float.infinity; Float.neg_infinity; Float.nan ]);
      ])

(* The data magnitude a fit restores: 1, below 1, subnormal or huge. *)
let y_scale_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return 1.0);
        (3, float_range 1e-3 1.0);
        (1, oneofl [ 4.9e-324; 2.2e-310; 1e-308 ]);
        (2, magnitude);
      ])

(* Coefficients that put a pole (a zero denominator) at [r], over a
   numerator [a]: a rational's b1 = -1/r, ExpRat's d = -c/r. *)
let pole_params kind ~r ~a =
  match kind with
  | Of_kernel k -> (
      match k.Kernel.name with
      | "ExpRat" -> Some [| a; 0.0; 1.0; -1.0 /. r |]
      | "Rat22" | "Rat23" | "Rat33" ->
          let num_degree = if k.Kernel.name = "Rat33" then 3 else 2 in
          Some (Array.init k.Kernel.arity (fun j -> if j = 0 then a else if j = num_degree + 1 then -1.0 /. r else 0.0))
      | _ -> None)
  | Polynomial | Constant | Zero -> None

type scan_case = {
  kind : int;
  params : float array;
  y_scale : float;
  x_min : float;
  x_max : float;
  require_nonnegative : bool;
}

let print_scan c =
  Printf.sprintf "%s params = %s; y_scale = %h; range = [%h, %h]; require_nonnegative = %b"
    (kind_name fit_kinds.(c.kind)) (hex c.params) c.y_scale c.x_min c.x_max c.require_nonnegative

(* Ranges start at 1 (as the pipeline's do) or anywhere from -2 to 10,
   signed zeros included, and are empty, up to 100 wide or up to 1e300
   wide; a few are reversed.  A pole sits anywhere in the range, on one of
   its 257 points, or on its last point over a small numerator, where
   only that point fails. *)
let scan_gen =
  let open QCheck.Gen in
  let* kind = int_range 0 (Array.length fit_kinds - 1) in
  let* x_min = frequency [ (4, return 1.0); (3, float_range (-2.0) 10.0); (1, oneofl [ 0.0; -0.0 ]) ]
  and* width =
    frequency [ (6, float_range 0.0 100.0); (1, return 0.0); (1, map (fun e -> 10.0 ** e) (float_range 2.0 300.0)) ]
  and* reversed = frequency [ (30, return false); (1, return true) ]
  and* y_scale = y_scale_gen
  and* require_nonnegative = bool
  and* pole = int_range 0 5
  and* u = float_range 0.0 1.0
  and* step = int_range 0 256
  and* small = signed (float_range 1e-3 0.05) in
  let x_max = x_min +. width in
  let x_min, x_max = if reversed then (x_max, x_min) else (x_min, x_max) in
  let point i = x_min +. ((x_max -. x_min) *. float_of_int i /. 256.) in
  let* random = array_repeat (arity fit_kinds.(kind)) coefficient in
  let pole_at r a = match pole_params fit_kinds.(kind) ~r ~a with Some p -> p | None -> random in
  let a = if Array.length random > 0 then random.(0) else 0.0 in
  let params =
    match pole with
    | 0 -> pole_at (x_min +. ((x_max -. x_min) *. u)) a
    | 1 -> pole_at (point step) a
    | 2 -> pole_at (point 256) small
    | _ -> random
  in
  return { kind; params; y_scale; x_min; x_max; require_nonnegative }

let scan_case = QCheck.make ~print:print_scan scan_gen

let verdict realistic c =
  let fitted = fitted_of fit_kinds.(c.kind) c.params ~y_scale:c.y_scale in
  match realistic fitted ~x_min:c.x_min ~x_max:c.x_max ~require_nonnegative:c.require_nonnegative with
  | ok -> Ok ok
  | exception Invalid_argument msg -> Error msg

let scan_agrees c = verdict Fit.realistic c = verdict Reference.realistic c

let prop_scan_matches_reference =
  QCheck.Test.make ~count:3000 ~name:"realism scan matches the per-point reference" scan_case scan_agrees

(* The first point where the per-point scan fails, if any. *)
let first_failure c =
  let fitted = fitted_of fit_kinds.(c.kind) c.params ~y_scale:c.y_scale in
  let bound = 200.0 *. Float.max c.y_scale 1.0 and neg_slack = -0.25 *. Float.max c.y_scale 1.0 in
  let failing i =
    let v = fitted.Fit.eval (c.x_min +. ((c.x_max -. c.x_min) *. float_of_int i /. 256.)) in
    (not (Float.is_finite v)) || Float.abs v > bound || (c.require_nonnegative && v < neg_slack)
  in
  List.find_opt failing (List.init 257 Fun.id)

(* A fixed sample of the generator must agree with the reference and
   reach both verdicts, fits that fail only at the range's last point or
   only before it, every kind of fit, and reversed ranges. *)
let test_scan_inputs_reach_every_branch () =
  let sample = QCheck.Gen.generate ~rand:(Random.State.make [| 17 |]) ~n:3000 scan_gen in
  List.iter (fun c -> if not (scan_agrees c) then Alcotest.failf "differs on %s" (print_scan c)) sample;
  let count p = List.length (List.filter p sample) in
  let valid c = c.x_min <= c.x_max in
  let realistic = count (fun c -> valid c && first_failure c = None)
  and last_only = count (fun c -> valid c && first_failure c = Some 256)
  and inside = count (fun c -> valid c && match first_failure c with Some i -> i < 256 | None -> false)
  and reversed = count (fun c -> not (valid c)) in
  if realistic = 0 || last_only = 0 || inside = 0 || reversed = 0 then
    Alcotest.failf "%d realistic, %d failing at the last point only, %d failing before it, %d reversed" realistic
      last_only inside reversed;
  Array.iteri
    (fun kind k ->
      if count (fun c -> c.kind = kind) = 0 then Alcotest.failf "no %s fit in the sample" (kind_name k))
    fit_kinds

type values_case = { v_kind : int; v_params : float array; v_y_scale : float; xs : float array }

let print_values c =
  Printf.sprintf "%s params = %s; y_scale = %h; xs = %s" (kind_name fit_kinds.(c.v_kind)) (hex c.v_params)
    c.v_y_scale (hex c.xs)

(* Core counts: integers, any reals from -5 to 100, signed zeros,
   subnormals, infinities and NaN, or a realism scan's 257 points. *)
let values_gen =
  let open QCheck.Gen in
  let* v_kind = int_range 0 (Array.length fit_kinds - 1) in
  let* v_params = array_repeat (arity fit_kinds.(v_kind)) coefficient and* v_y_scale = y_scale_gen in
  let x =
    frequency
      [
        (6, map float_of_int (int_range 1 64));
        (4, float_range (-5.0) 100.0);
        (1, oneofl [ 0.0; -0.0; 4.9e-324; Float.infinity; Float.neg_infinity; Float.nan; 1e300 ]);
      ]
  in
  let* xs =
    frequency
      [
        (5, array_size (int_range 0 24) x);
        (1, map (fun hi -> Array.init 257 (fun i -> 1.0 +. ((hi -. 1.0) *. float_of_int i /. 256.))) (float_range 1.0 96.0));
      ]
  in
  return { v_kind; v_params; v_y_scale; xs }

(* Bit for bit eval ... *. y_scale at every point (CubicLn's and Poly25's
   eval as they were, a closure fit's eval), on the pass that stages the
   kernel over the grid, on the staged pass that follows and point by
   point through the fit's own eval. *)
let values_agree c =
  let kind = fit_kinds.(c.v_kind) in
  let fitted = fitted_of kind c.v_params ~y_scale:c.v_y_scale in
  let eval =
    match kind with
    | Of_kernel k -> fun x -> Reference.kernel_eval k c.v_params x *. c.v_y_scale
    | Polynomial | Constant | Zero -> fitted.Fit.eval
  in
  let expected = Array.map eval c.xs and grid = Kernel.grid c.xs in
  same_floats (Fit.values fitted grid) expected
  && same_floats (Fit.values fitted grid) expected
  && same_floats (Array.map fitted.Fit.eval c.xs) expected

let prop_values_bit_identical =
  QCheck.Test.make ~count:2000 ~name:"batched values match eval bit for bit"
    (QCheck.make ~print:print_values values_gen)
    values_agree

(* Every term -0.0: CubicLn at x = 1 (ln x = 0) and Poly25 at x = 0, with
   a -0.0 constant and negative coefficients.  Summed from 0.0, as
   [Vec.dot] sums, the value is +0.0; a sum that leaves out the leading
   0.0 is -0.0. *)
let test_values_keep_the_sign_of_zero () =
  let index name =
    let rec find i = if kind_name fit_kinds.(i) = name then i else find (i + 1) in
    find 0
  in
  List.iter
    (fun (name, x) ->
      let c = { v_kind = index name; v_params = [| -0.0; -1.0; -2.0; -3.0 |]; v_y_scale = 1.0; xs = [| x |] } in
      if not (values_agree c) then Alcotest.failf "differs on %s" (print_values c))
    [ ("CubicLn", 1.0); ("Poly25", 0.0) ]

let major_words () =
  let _, _, major = Gc.counters () in
  major

(* Minor and major words allocated by [n] scans of [fitted] over [1, 48]:
   a 257-float buffer or table goes straight to the major heap, which
   [Gc.minor_words] does not count. *)
let scan_words fitted n =
  let w0 = Gc.minor_words () and m0 = major_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Fit.realistic fitted ~x_min:1.0 ~x_max:48.0 ~require_nonnegative:true))
  done;
  (Gc.minor_words () -. w0, major_words () -. m0)

(* A scan of a fitted Rat33 and of a fitted Poly25 allocates nothing once
   its grid is built: twice the scans, the same words, minor and major. *)
let test_realism_scan_allocates_nothing () =
  let xs = [| 1.0; 2.0; 4.0; 6.0; 8.0; 12.0; 16.0; 24.0 |] in
  let ys = [| 0.9; 1.7; 3.1; 4.6; 5.6; 8.9; 10.2; 17.5 |] in
  List.iter
    (fun (kernel : Kernel.t) ->
      match Fit.fit kernel ~xs ~ys with
      | None -> Alcotest.failf "%s does not fit the fixture" kernel.Kernel.name
      | Some fitted ->
          if not (Fit.realistic fitted ~x_min:1.0 ~x_max:48.0 ~require_nonnegative:true) then
            Alcotest.failf "the fitted %s is not realistic, so its scan stops early" kernel.Kernel.name;
          let k = 50 in
          let short, short_major = scan_words fitted k in
          let long, long_major = scan_words fitted (2 * k) in
          if long <> short || long_major <> short_major then
            Alcotest.failf "%s: %d scans allocate %.0f minor and %.0f major words, %d scans %.0f and %.0f"
              kernel.Kernel.name k short short_major (2 * k) long long_major)
    [ Rational.rat33; Poly25.kernel ]

(* Each domain keeps its own scan grid: a scan over another range on
   another domain leaves this domain's next scan of a fitted Rat33 and
   Poly25 allocating what it did before, minor and major words. *)
let test_scan_grid_is_per_domain () =
  let xs = [| 1.0; 2.0; 4.0; 6.0; 8.0; 12.0; 16.0; 24.0 |] in
  let ys = [| 0.9; 1.7; 3.1; 4.6; 5.6; 8.9; 10.2; 17.5 |] in
  List.iter
    (fun (kernel : Kernel.t) ->
      match Fit.fit kernel ~xs ~ys with
      | None -> Alcotest.failf "%s does not fit the fixture" kernel.Kernel.name
      | Some fitted ->
          ignore (scan_words fitted 1);
          let alone = scan_words fitted 1 in
          let other =
            Domain.spawn (fun () -> Fit.realistic fitted ~x_min:1.0 ~x_max:20.0 ~require_nonnegative:true)
          in
          ignore (Domain.join other);
          let after_other = scan_words fitted 1 in
          if after_other <> alone then
            Alcotest.failf "%s: a scan allocates %.0f minor and %.0f major words, %.0f and %.0f after another domain's"
              kernel.Kernel.name (fst alone) (snd alone) (fst after_other) (snd after_other))
    [ Rational.rat33; Poly25.kernel ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_lm_bit_identical;
    QCheck_alcotest.to_alcotest prop_qr_bit_identical;
    QCheck_alcotest.to_alcotest prop_band_bit_identical;
    ("inputs reach every branch", `Quick, test_inputs_reach_every_branch);
    ("lm iterations allocate nothing", `Quick, test_lm_iterations_allocate_nothing);
    QCheck_alcotest.to_alcotest prop_damped_step_matches_reference;
    QCheck_alcotest.to_alcotest prop_wide_qr_bit_identical;
    QCheck_alcotest.to_alcotest prop_scan_matches_reference;
    ("scan inputs reach every branch", `Quick, test_scan_inputs_reach_every_branch);
    QCheck_alcotest.to_alcotest prop_values_bit_identical;
    ("realism scan allocates nothing", `Quick, test_realism_scan_allocates_nothing);
    ("scan grid is per domain", `Quick, test_scan_grid_is_per_domain);
    ("batched values keep the sign of zero", `Quick, test_values_keep_the_sign_of_zero);
  ]
