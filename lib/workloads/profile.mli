(** Workload construction helper.

    Every benchmark in the suite is a {!Estima_sim.Spec.t} built through
    {!make}: a single place holding sensible defaults so each workload file
    states only what distinguishes it.  Parameters were tuned to the
    *published qualitative behaviour* of each benchmark (which scale and
    where the poor scalers stop) — never to ESTIMA's own outputs. *)

open Estima_sim

val make :
  name:string ->
  ?total_ops:int ->
  ?private_footprint_lines:int ->
  ?shared_footprint_lines:int ->
  ?useful_cycles:float ->
  ?useful_cv:float ->
  ?mem_reads:int ->
  ?mem_writes:int ->
  ?shared_fraction:float ->
  ?write_shared_fraction:float ->
  ?fp_fraction:float ->
  ?dependency_factor:float ->
  ?branch_mpki:float ->
  ?frontend_cycles:float ->
  ?sync:Spec.sync ->
  ?barrier_every:int ->
  ?barrier_kind:Spec.lock_kind ->
  unit ->
  Spec.t
(** [make ~name ()] is a CPU-bound strong-scaling workload of 48,000 total
    operations; each optional argument overrides one default.  The result
    always passes {!Spec.validate}. *)
