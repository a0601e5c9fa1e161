(* The fit core against its reference: Lm.minimize over the kernels'
   staged objectives, and Qr, must return the bits the allocating
   implementation in Fit_core_reference returned over the per-point
   eval/gradient objectives, and an Lm.minimize iteration must allocate
   nothing. *)

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

(* Random systems, rank-deficient ones included (a repeated, scaled or zero
   column), sometimes with a non-finite entry. *)
let system_gen =
  let open QCheck.Gen in
  let* n = int_range 1 7 in
  let* m = int_range n 19 in
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

let system =
  let rows a = String.concat " | " (Array.to_list (Array.map hex (Mat.to_arrays a))) in
  QCheck.make ~print:(fun (a, b) -> Printf.sprintf "a = %s; b = %s" (rows a) (hex b)) system_gen

let solved solve (a, b) = match solve a b with x -> Some x | exception Qr.Singular -> None

let qr_agrees system =
  match (solved Qr.solve_least_squares system, solved Reference.Qr.solve_least_squares system) with
  | Some x, Some y -> same_floats x y
  | None, None -> true
  | Some _, None | None, Some _ -> false

let prop_qr_bit_identical =
  QCheck.Test.make ~count:300 ~name:"qr matches the reference bit for bit" system qr_agrees

(* The properties are only as strong as the branches their inputs reach:
   a fixed sample of each generator must agree and reach non-finite,
   rejected and accepted trial steps, and singular and solvable systems. *)
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
    Alcotest.failf "%d of %d systems singular" singular (List.length systems)

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

let suite =
  [
    QCheck_alcotest.to_alcotest prop_lm_bit_identical;
    QCheck_alcotest.to_alcotest prop_qr_bit_identical;
    ("inputs reach every branch", `Quick, test_inputs_reach_every_branch);
    ("lm iterations allocate nothing", `Quick, test_lm_iterations_allocate_nothing);
  ]
