open Estima_numerics

(* params = [| a; b; c; d |], f = a + b x + c x^2 + d p with p = x^2.5,
   the basis [1; x; x^2; p] dotted with the coefficients left to right
   from 0.0, as [Vec.dot] sums. *)
let[@inline] eval_pow params x p =
  0.0 +. (params.(0) *. 1.0) +. (params.(1) *. x) +. (params.(2) *. (x *. x)) +. (params.(3) *. p)

let eval params x = eval_pow params x (Float.pow x 2.5)

(* The objective of one fit: x^2.5 is tabulated once, so a residual pass
   calls no [Float.pow] and allocates nothing.  The Jacobian row at x is
   the basis itself. *)
let objective ~xs ~ys =
  let m = Array.length xs in
  let pows = Array.map (fun x -> Float.pow x 2.5) xs in
  let residual_into params r =
    for i = 0 to m - 1 do
      r.(i) <- eval_pow params xs.(i) pows.(i) -. ys.(i)
    done
  in
  let jacobian_into _params jac =
    for i = 0 to m - 1 do
      let x = xs.(i) and row = 4 * i in
      jac.(row) <- 1.0;
      jac.(row + 1) <- x;
      jac.(row + 2) <- x *. x;
      jac.(row + 3) <- pows.(i)
    done
  in
  Lm.objective ~residuals:m ~residual_into ~jacobian_into

let initial_guesses ~xs ~ys =
  if Array.length xs < 4 || Array.exists (fun x -> x < 0.0) xs then []
  else
    match
      Linear_fit.fit
        ~basis:[| (fun _ -> 1.0); Fun.id; (fun x -> x *. x); (fun x -> Float.pow x 2.5) |]
        ~xs ~ys
    with
    | exception Qr.Singular -> []
    | c -> if Vec.all_finite c then [ c ] else []

let kernel = Kernel.make ~name:"Poly25" ~arity:4 ~eval ~objective ~initial_guesses ~linear:true
