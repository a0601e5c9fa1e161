(** The accuracy gate: corpus backtest + golden comparison +
    surface differential (+ band calibration on request), as one
    pass/fail decision.

    This is what [estima_cli validate] and the CI accuracy step run.  A
    gate passes when every corpus workload's fresh report agrees with its
    blessed golden file under {!Golden.diff}'s rule (numbers within 0.01,
    [per_point] informational, everything else exact), the Table 4
    invariant holds, {e and} (unless disabled) the three prediction
    surfaces agree byte for byte.  [--bless] turns the same run into the
    snapshot writer. *)

type options = {
  golden_dir : string;  (** Where the blessed JSON corpus lives. *)
  bless : bool;  (** Write golden files instead of comparing. *)
  names : string list;  (** Corpus workloads ({!Corpus.default_names}). *)
  differential : bool;  (** Also run the CLI/Api/server differential ({!Differential.run}). *)
  perturb : bool;
      (** DEV ONLY: swap every fit kernel for a deliberately skewed
          variant, to prove the gate catches an engine regression.  A
          perturbed run must fail against honest golden files. *)
  calibration : bool;
      (** Also score the bootstrap confidence bands' held-out coverage
          ({!Calibration.run}) and gate on it. *)
  calibration_resamples : int;  (** {!Calibration.default_resamples}. *)
  perturb_calibration : bool;
      (** DEV ONLY: shrink the bootstrap residuals so the bands are
          deliberately overconfident — the calibration check must then
          fail.  Implies [calibration]. *)
}

val default_options : golden_dir:string -> options
(** Compare (not bless) the default corpus, with the differential on at
    jobs 1 and 4 and calibration off. *)

type outcome = {
  reports : Report.t list;
  summary : Report.summary;
  subset : bool;
      (** The run covered fewer workloads than {!Corpus.default_names};
          the golden summary is skipped (it aggregates the full corpus). *)
  golden_mismatches : string list;
  differential_ran : bool;  (** False in bless mode or under [--no-differential]. *)
  differential_mismatches : string list;
  calibration : Calibration.t option;
      (** The band-coverage check, when [calibration] (or
          [perturb_calibration]) was set; [None] in bless mode. *)
  blessed : string list;  (** Paths written in bless mode. *)
  passed : bool;
      (** Bless mode: the invariant held.  Compare mode: additionally no
          golden, differential or calibration mismatch. *)
}

val run : options -> (outcome, Estima.Diag.t) result
(** Execute the gate.  [Error] means the backtest itself could not run
    (a pipeline diagnostic) — distinct from a failing gate, which is
    [Ok] with [passed = false]. *)

val render_text : outcome -> string
(** The human report: per-workload table, aggregate summary, mismatch
    lists, final PASS/FAIL line. *)

val json_of_outcome : outcome -> Estima_json.Json.t
(** Machine-readable report (what [validate --json] prints and CI
    uploads): per-workload reports, summary, mismatches, [passed]. *)

val perturbed_kernels : unit -> Estima_kernels.Kernel.t list
(** DEV ONLY.  Table 1 kernels with evaluation skewed by a factor that
    grows with the core count ([1 + 0.005 x]; each kernel's fit objective
    is skewed identically, so the fit follows the skewed model), so
    extrapolations drift while in-window fits barely move — a constant
    skew would be absorbed by the fit and prove nothing.  Used to
    demonstrate the gate fails when the engine is wrong. *)
