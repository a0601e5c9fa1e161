(** The Section 4.6 bottleneck fixes, as workload variants.

    After ESTIMA pinpoints the dominant stall categories, the paper applies
    two source-level fixes and re-measures; these specs encode exactly
    those modifications. *)

open Estima_sim

val streamcluster_spinlock : Spec.t
(** PARSEC's pthread-mutex barriers replaced with test-and-set spinlocks:
    removes the serialised wake-up chain (paper: up to 74% faster). *)

val intruder_batched : Spec.t
(** Decoder processes 4 elements per transaction instead of one: fewer,
    larger transactions lower total conflict exposure (paper: up to 70%
    faster). *)
