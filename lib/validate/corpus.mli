(** The standing validation corpus: which workloads the accuracy gate
    backtests, under which protocol, and how to turn each into a
    {!Backtest.source} backed by the simulator via
    {!Estima_repro.Lab}'s measurement cache.

    The default corpus is a deliberate subset of Table 4's 19 workloads —
    large enough to pin the error structure (it includes the worst-case
    workload and both verdict classes), small enough that [estima_cli
    validate] finishes in tens of seconds rather than the ~9 minutes a
    full T4 sweep costs. *)

open Estima_workloads

type spec = { entry : Suite.entry; protocol : Report.protocol }

val opteron_protocol : Suite.entry -> Report.protocol
(** The paper's headline protocol: measure 1 Opteron socket up to 12
    cores, predict the full 48-core machine ([seed 42], 5 repetitions,
    software plugins on exactly when the workload has them — the Table 4
    configuration). *)

val default_names : string list
(** The 8 default corpus workloads, in run order. *)

val default : spec list

val of_names : string list -> (spec list, string) result
(** Resolve workload names against {!Suite.all} under the opteron
    protocol; the error names the first unknown workload. *)

val source : spec -> Backtest.source
(** Materialise the measurements and ground-truth sweep (cached in
    {!Estima_repro.Lab}; the first call per workload simulates, later
    calls are free).  Raises [Invalid_argument] when the protocol names
    an unknown machine. *)
