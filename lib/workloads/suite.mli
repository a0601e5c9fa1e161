(** The workload registry: the paper's 19 benchmark workloads (Table 4),
    the two production applications, and the fixed variants, each paired
    with the software-stall plugins its runtime exposes. *)

open Estima_sim

type family = Micro | Stamp | Parsec | Kernel | Application

type entry = {
  spec : Spec.t;
  family : family;
  plugins : Estima_counters.Plugin.t list;
      (** Software stall sources available for this workload: SwissTM
          statistics for STM benchmarks, the pthread wrapper where the
          paper used it (streamcluster, genome, ssca2), none otherwise. *)
}

val benchmarks : entry list
(** The 19 workloads of Table 4, in the paper's row order. *)

val all : entry list
(** {!benchmarks}, then the production applications memcached and
    sqlite (Section 4.3, family [Application]), then the fixed variants
    streamcluster-spinlock and intruder-batched (Section 4.6). *)

val find : string -> entry option
(** Lookup by spec name, e.g. ["intruder"]. *)

val names : entry list -> string list

val family_label : family -> string
