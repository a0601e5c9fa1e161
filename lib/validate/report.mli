(** Machine-readable accuracy reports: the paper's Table 4 criteria as
    data.

    A {!t} is one workload's backtest outcome — fit on a small measured
    window, predict the full machine, score against an independent
    ground-truth sweep — and a {!summary} aggregates a corpus of them,
    including the verdict confusion matrix that turns the paper's "ESTIMA
    never predicts scaling when the application does not" claim into an
    executable assertion.

    Every shape has one canonical JSON form (stable key order, [%.17g]
    floats, so encoding is deterministic and bit-exact) and no decoder:
    the golden corpus under [test/golden/] stores exactly these
    documents, printed by {!Estima_json.Json.pretty}, and {!Golden}
    diffs them as JSON. *)

type protocol = {
  machine : string;  (** Base measurements machine name ({!Estima_machine.Machines.find}). *)
  sockets : int option;  (** Restrict the measurements machine to its first sockets. *)
  target : string;  (** Target machine name. *)
  window : int;  (** Highest core count measured (the truncation point). *)
  target_max : int;  (** Highest core count predicted and scored. *)
  seed : int;  (** Measurement campaign seed; {!Estima.Experiment.sweep} offsets it. *)
  repetitions : int;  (** Averaged runs per measured point. *)
  include_software : bool;  (** Software stall plugins enabled. *)
}
(** The backtest protocol, recorded so a golden file documents — and the
    comparison can verify — exactly which experiment produced it. *)

type errors = {
  max_error : float;  (** Max relative error over the held-out points. *)
  mean_error : float;
  std_error : float;  (** Std dev of the per-point relative errors. *)
}

type t = {
  workload : string;
  family : string;
  protocol : protocol;
  errors : errors;
  per_point : (int * float) list;  (** (threads, relative error), held-out region only. *)
  predicted_verdict : Estima.Diag.Quality.verdict;
  measured_verdict : Estima.Diag.Quality.verdict;
  verdict_agrees : bool;
  stop_delta : int option;
      (** Predicted minus measured stop core count when both verdicts
          stop; [None] when either scales. *)
}

(** The verdict confusion matrix, predicted (rows) against measured
    (columns).  [scales_stops] is the paper's forbidden cell: a workload
    predicted to scale that measurably does not. *)
type confusion = {
  scales_scales : int;
  scales_stops : int;
  stops_scales : int;
  stops_stops : int;
}

type summary = {
  workloads : string list;  (** Corpus members, in run order. *)
  avg_max_error : float;  (** Mean of the per-workload max errors (T4's "avg"). *)
  std_max_error : float;
  worst_error : float;
  worst_workload : string;  (** The workload attaining [worst_error]. *)
  confusion : confusion;
  invariant_ok : bool;  (** [confusion.scales_stops = 0]. *)
}

val verdict_to_json_string : Estima.Diag.Quality.verdict -> string
(** ["scales"] or ["stops@N"] — the compact exact form golden files store. *)

val summarize : t list -> summary
(** Aggregate a corpus run.  Raises [Invalid_argument] on an empty list. *)

(** {1 Canonical JSON} *)

val to_json : t -> Estima_json.Json.t

val summary_to_json : summary -> Estima_json.Json.t

(** {1 Text rendering} *)

val table : t list -> string
(** The T4-style accuracy table: one aligned row per workload (max, mean
    and std error, both verdicts, stop delta). *)

val summary_lines : summary -> string
(** Aggregate statistics, the confusion matrix and the scaling-claim
    invariant, as printable lines. *)
