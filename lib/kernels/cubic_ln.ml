open Estima_numerics

(* params = [| a; b; c; d |], f = a + b l + c l^2 + d l^3 with l = ln n,
   the basis [1; l; l^2; l^3] dotted with the coefficients left to right
   from 0.0, as [Vec.dot] sums. *)
let[@inline] eval_log params l =
  0.0 +. (params.(0) *. 1.0) +. (params.(1) *. l) +. (params.(2) *. (l *. l)) +. (params.(3) *. (l *. l *. l))

let eval params x = eval_log params (log x)

(* The objective of one fit: ln x is tabulated once, so a residual pass
   calls no [log] and allocates nothing.  The Jacobian row at x is the
   basis itself. *)
let objective ~xs ~ys =
  let m = Array.length xs in
  let logs = Array.map log xs in
  let residual_into params r =
    for i = 0 to m - 1 do
      r.(i) <- eval_log params logs.(i) -. ys.(i)
    done
  in
  let jacobian_into _params jac =
    for i = 0 to m - 1 do
      let l = logs.(i) and row = 4 * i in
      jac.(row) <- 1.0;
      jac.(row + 1) <- l;
      jac.(row + 2) <- l *. l;
      jac.(row + 3) <- l *. l *. l
    done
  in
  Lm.objective ~residuals:m ~residual_into ~jacobian_into

let initial_guesses ~xs ~ys =
  if Array.length xs < 4 || Array.exists (fun x -> x <= 0.0) xs then []
  else
    match
      Linear_fit.fit
        ~basis:[| (fun _ -> 1.0); log; (fun x -> Float.pow (log x) 2.0); (fun x -> Float.pow (log x) 3.0) |]
        ~xs ~ys
    with
    | exception Qr.Singular -> []
    | c -> if Vec.all_finite c then [ c ] else []

let kernel = Kernel.make ~name:"CubicLn" ~arity:4 ~eval ~objective ~initial_guesses ~linear:true
