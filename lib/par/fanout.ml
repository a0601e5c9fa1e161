module Trace = Estima_obs.Trace

(* ------------------------------ jobs knob ------------------------------ *)

(* With ESTIMA_JOBS unset (or blank) the default is the host's available
   parallelism, not 1 — a fan-out is then clamped further to the amount
   of submitted work, so small inputs never spawn idle domains.  An
   explicit setting is honoured verbatim (benchmarks deliberately probe
   jobs > cores); a malformed or non-positive value still degrades to
   sequential. *)
let env_jobs () =
  match Sys.getenv_opt "ESTIMA_JOBS" with
  | None | Some "" -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with Some n when n >= 1 -> n | _ -> 1)

(* Main-domain state: the knob and the shared pool.  Workers never touch
   either (a nested fan-out runs inline before reaching them). *)
let override : int option ref = ref None

let jobs () = match !override with Some n -> n | None -> env_jobs ()

let set_jobs = function
  | Some n when n < 1 -> invalid_arg "Fanout.set_jobs: jobs must be >= 1"
  | o -> override := o

let shared_pool : Pool.t option ref = ref None

let at_exit_registered = ref false

let shutdown () =
  match !shared_pool with
  | None -> ()
  | Some p ->
      shared_pool := None;
      Pool.shutdown p

(* A pool at least [width] wide serves any narrower fan-out: rebuilding
   joins every worker domain and spawns new ones, so the pool is rebuilt
   only to grow, or to shrink after the jobs knob was lowered below its
   size. *)
let pool ~width =
  match !shared_pool with
  | Some p when width <= Pool.size p && Pool.size p <= jobs () -> p
  | stale ->
      (match stale with Some p -> Pool.shutdown p | None -> ());
      let p = Pool.create ~jobs:width in
      shared_pool := Some p;
      if not !at_exit_registered then begin
        at_exit_registered := true;
        Stdlib.at_exit shutdown
      end;
      p

(* ------------------------------ fan-out ------------------------------- *)

let map_consume xs ~f ~consume =
  (* Never more domains than tasks: the effective width is the jobs knob
     clamped to the submitted work.  A traced run stays on the calling
     domain, whose sink, span stack and clock are domain-local. *)
  let width = min (jobs ()) (Array.length xs) in
  if width <= 1 || Pool.in_task () || Trace.enabled () then
    Array.iter (fun x -> consume (f x)) xs
  else
    Array.iter
      (function Ok v -> consume v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      (Pool.run (pool ~width) xs ~f)

let map xs ~f =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    let next = ref 0 in
    map_consume xs ~f ~consume:(fun v ->
        out.(!next) <- Some v;
        incr next);
    Array.map Option.get out
  end
