open Estima_numerics

type t = {
  name : string;
  arity : int;
  eval : Vec.t -> float -> float;
  gradient : Vec.t -> float -> Vec.t;
  initial_guesses : xs:float array -> ys:float array -> Vec.t list;
  linear : bool;
}

let applicable t ~npoints = npoints >= t.arity

(* Plain loops: the polymorphic Array iterators and [Mat.init]'s
   float-returning closure would box every entry. *)
let residual_objective t ~xs ~ys =
  let m = Array.length xs in
  if m <> Array.length ys then invalid_arg "Kernel.residual_objective: length mismatch";
  let residual params =
    let r = Array.make m 0.0 in
    for i = 0 to m - 1 do
      r.(i) <- t.eval params xs.(i) -. ys.(i)
    done;
    r
  in
  let jacobian params =
    let jac = Mat.create m t.arity 0.0 in
    for i = 0 to m - 1 do
      let row = t.gradient params xs.(i) in
      for j = 0 to t.arity - 1 do
        Mat.set jac i j row.(j)
      done
    done;
    jac
  in
  { Lm.residual; jacobian }
