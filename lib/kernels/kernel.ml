open Estima_numerics

type t = {
  name : string;
  arity : int;
  eval : Vec.t -> float -> float;
  objective : xs:float array -> ys:float array -> Lm.objective;
  initial_guesses : xs:float array -> ys:float array -> Vec.t list;
  linear : bool;
}

let make ~name ~arity ~eval ~objective ~initial_guesses ~linear =
  { name; arity; eval; objective; initial_guesses; linear }

let applicable t ~npoints = npoints >= t.arity

let residual_objective t ~xs ~ys =
  if Array.length xs <> Array.length ys then invalid_arg "Kernel.residual_objective: length mismatch";
  t.objective ~xs ~ys

let basis_objective ~arity basis ~xs ~ys =
  let m = Array.length xs in
  let table = Array.make (m * arity) 0.0 in
  for i = 0 to m - 1 do
    Array.blit (basis xs.(i)) 0 table (i * arity) arity
  done;
  let residual_into params r =
    for i = 0 to m - 1 do
      let acc = ref 0.0 in
      for j = 0 to arity - 1 do
        acc := !acc +. (params.(j) *. table.((i * arity) + j))
      done;
      r.(i) <- !acc -. ys.(i)
    done
  in
  let jacobian_into _params jac = Array.blit table 0 jac 0 (m * arity) in
  Lm.objective ~residuals:m ~residual_into ~jacobian_into
