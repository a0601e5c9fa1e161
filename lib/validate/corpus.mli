(** The standing validation corpus: which workloads the accuracy gate
    backtests, under which protocol, and how to turn each into a
    {!Backtest.source} measured and swept by {!Estima.Experiment}, the
    evaluation protocol the repro experiments and [compare] share.

    The default corpus is a deliberate subset of Table 4's 19 workloads —
    large enough to pin the error structure (it includes the worst-case
    workload and both verdict classes), small enough that [estima_cli
    validate] finishes in tens of seconds rather than the ~9 minutes a
    full T4 sweep costs. *)

open Estima_workloads

type spec = { entry : Suite.entry; protocol : Report.protocol }

val default_names : string list
(** The 8 default corpus workloads, in run order. *)

val default : spec list

val of_names : string list -> (spec list, string) result
(** Resolve workload names against {!Suite.all} under the paper's
    headline protocol (one Opteron socket measured up to 12 cores, the
    48-core machine predicted, seed 42, 5 repetitions: the Table 4
    configuration); the error names the first unknown workload. *)

val machines : Report.protocol -> Estima_machine.Topology.t * Estima_machine.Topology.t
(** The protocol's measurements machine (its base restricted to
    [sockets], when set) and its target.  Raises [Invalid_argument] when
    the protocol names an unknown machine. *)

val source : spec -> Backtest.source
(** Materialise the measurements and ground-truth sweep through
    {!Estima.Experiment} under the protocol's seed and repetitions (the
    shared store makes the first call per workload simulate and later
    calls free).  Raises [Invalid_argument] as {!machines} does. *)
