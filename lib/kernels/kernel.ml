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

(* Each kernel's pass is staged on its first use and kept beside the
   grid; domains that stage the same kernel at once keep one copy.  The
   passes share the grid's zero targets, which no objective writes. *)
type grid = { xs : float array; zeros : float array; staged : (t * (Vec.t -> float array -> unit)) list Atomic.t }

let grid xs = { xs; zeros = Array.make (Array.length xs) 0.0; staged = Atomic.make [] }

let grid_xs grid = grid.xs

(* The residual against zero targets is [eval p x -. 0.0], which is
   [eval p x] bit for bit, signed zeros and NaNs included. *)
let values t grid =
  let staged = Atomic.get grid.staged in
  match List.assq t staged with
  | pass -> pass
  | exception Not_found ->
      let pass = (t.objective ~xs:grid.xs ~ys:grid.zeros).Lm.residual_into in
      ignore (Atomic.compare_and_set grid.staged staged ((t, pass) :: staged));
      pass
