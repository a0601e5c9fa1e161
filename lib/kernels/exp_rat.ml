open Estima_numerics

(* params = [| a; b; c; d |], f = exp((a + b n)/(c + d n)) *)

let[@inline] eval params x =
  let num = params.(0) +. (params.(1) *. x) in
  let den = params.(2) +. (params.(3) *. x) in
  exp (num /. den)

(* The Jacobian row at x is f [1/den; x/den; -num/den^2; -num x/den^2],
   each product formed left to right from f. *)
let objective ~xs ~ys =
  let m = Array.length xs in
  let residual_into params r =
    for i = 0 to m - 1 do
      r.(i) <- eval params xs.(i) -. ys.(i)
    done
  in
  let jacobian_into params jac =
    for i = 0 to m - 1 do
      let x = xs.(i) in
      let num = params.(0) +. (params.(1) *. x) in
      let den = params.(2) +. (params.(3) *. x) in
      let f = exp (num /. den) in
      let den2 = den *. den in
      let row = 4 * i in
      jac.(row) <- f /. den;
      jac.(row + 1) <- f *. x /. den;
      jac.(row + 2) <- -.f *. num /. den2;
      jac.(row + 3) <- -.f *. num *. x /. den2
    done
  in
  Lm.objective ~residuals:m ~residual_into ~jacobian_into

(* With c fixed near 1, ln y ~ (a + b n)/(1 + d n); multiply out:
   a + b n - (ln y) d n = ln y, linear in (a, b, d). *)
let initial_guesses ~xs ~ys =
  if Array.exists (fun y -> y <= 0.0) ys || Array.length xs < 4 then []
  else
    let logs = Array.map log ys in
    let design =
      Mat.init (Array.length xs) 3 (fun i j ->
          match j with
          | 0 -> 1.0
          | 1 -> xs.(i)
          | _ -> -.logs.(i) *. xs.(i))
    in
    let linearised =
      match Qr.solve_least_squares design logs with
      | exception Qr.Singular -> []
      | c when Vec.all_finite c -> [ [| c.(0); c.(1); 1.0; c.(2) |] ]
      | _ -> []
    in
    (* Fallback: the constant function exp(ln mean), i.e. a = ln mean. *)
    let mean_y = Stats.mean ys in
    let constant = if mean_y > 0.0 then [ [| log mean_y; 0.0; 1.0; 0.0 |] ] else [] in
    linearised @ constant

let kernel = Kernel.make ~name:"ExpRat" ~arity:4 ~eval ~objective ~initial_guesses ~linear:false
