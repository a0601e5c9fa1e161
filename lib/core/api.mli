(** The stable, versioned entry point to ESTIMA.

    Everything a program needs to go from measurements to a scalability
    prediction is reachable from here, under one consistent naming scheme
    that follows the paper's Figure 3 pipeline:

    - {b collect} (stage A): {!collect} runs a simulated workload;
      {!load_series}/{!series_of_csv}/{!attach_software} ingest
      measurements collected outside ESTIMA;
    - {b predict} (stages B and C): {!predict} and {!predict_traced},
      both driven by a single {!Config.t} knob record;
    - {b judge and render}: {!Quality} scores a prediction against ground
      truth, {!render_text} is the exact text [estima_cli predict] prints,
      and {!render_summary}/{!render_rows}/{!render_verdict} are its parts
      — which is what the prediction service returns on the wire, so the
      two surfaces are byte-identical by construction.

    Programs should depend on this module (and the re-exported
    {!Config}/{!Diag}/{!Quality}) rather than reaching into the
    individual [lib/core] modules: those remain visible for the paper
    reproduction harness, but their shapes are free to change between
    versions, while [Api] only changes with {!version}. *)

open Estima_counters

val version : int
(** The API generation, bumped on any incompatible change to this
    signature or to the service wire protocol built on it.  Currently 3:
    version 2 removed the deprecated [*_exn] wrappers (the result-typed
    pipeline is the only entry point), added
    {!predict_with_confidence} with its renderers, and introduced the
    versioned ["v"] member on the service wire protocol; version 3
    removed the arguments and fields no program set to a second value
    ([predict_with_confidence ?level ?seed], [Config.make ?min_prefix
    ?kernels ?include_frontend ?frequency_scale], the [Config.t] fields
    [min_prefix] and [include_frontend], [Prediction.t]'s [audit] and
    [Quality.scaling_verdict ?tolerance]).  The wire did not change. *)

(** Re-exports: the full knob record, diagnostics, quality metrics, the
    prediction type, bottleneck analysis, and the bootstrap confidence
    machinery. *)

module Config = Config

module Diag = Diag
module Quality = Diag.Quality
module Prediction = Predictor
module Bottleneck = Bottleneck
module Confidence = Estima_confidence.Confidence

(** {1 Stage A — collect} *)

val collect :
  ?seed:int ->
  ?repetitions:int ->
  ?plugins:Plugin.t list ->
  machine:Estima_machine.Topology.t ->
  spec:Estima_sim.Spec.t ->
  max_threads:int ->
  unit ->
  Series.t
(** Measure [spec] on [machine] at every core count 1..[max_threads]
    (the paper's measurement sweep).  Defaults: seed 42, 5 averaged
    repetitions, no software plugins.  Resolves through the shared
    measurement store ({!Estima_store.Store}): repeated identical
    requests return the memoised series, and with [ESTIMA_STORE] (or the
    CLI's [--store]) set the series persists on disk across processes —
    byte-identical to a fresh collection either way. *)

val validate_window :
  machine:Estima_machine.Topology.t -> max_threads:int -> (unit, Diag.t) result
(** Check a measurement window against the machine before collecting:
    [max_threads] must be at least 1 and no larger than the machine's
    hardware thread count.  Violations are a typed
    {!Diag.Bad_config} (stage [Collect], exit code 2), never an
    exception. *)

val validate_sockets : machine:Estima_machine.Topology.t -> sockets:int -> (unit, Diag.t) result
(** Check a [--sockets] count against the machine before restricting it
    ({!Estima_machine.Machines.restrict_sockets}): it must be at least 1
    and no more than the machine's sockets.  A violation is a typed
    {!Diag.Bad_config} naming the machine's socket count (stage
    [Collect], exit code 2), never the restriction's exception. *)

val validate_repetitions : spec:Estima_sim.Spec.t -> repetitions:int -> (unit, Diag.t) result
(** Check a repetition count before collecting [spec]: it must be at
    least 1.  A violation is a typed {!Diag.Bad_config} (stage
    [Collect], exit code 2), never the collector's exception. *)

val collect_checked :
  ?seed:int ->
  ?repetitions:int ->
  ?plugins:Plugin.t list ->
  machine:Estima_machine.Topology.t ->
  spec:Estima_sim.Spec.t ->
  max_threads:int ->
  unit ->
  (Series.t, Diag.t) result
(** {!collect} behind {!validate_window} and {!validate_repetitions}:
    out-of-range requests — a window larger than the machine, a
    non-positive window or repetition count — come back as typed
    diagnostics instead of [Invalid_argument] from deep inside the
    allocator.  In-range behaviour is identical to {!collect}. *)

val load_series :
  ?spec_name:string ->
  machine:Estima_machine.Topology.t ->
  string ->
  (Series.t, Diag.t) result
(** Ingest a CSV file in the [collect --csv] schema ({!Ingest.load_series});
    [spec_name] defaults to the file's basename without extension. *)

val series_of_csv :
  ?file:string ->
  ?spec_name:string ->
  machine:Estima_machine.Topology.t ->
  string ->
  (Series.t, Diag.t) result
(** Parse an in-memory CSV document; [file] (default ["<csv>"]) labels
    parse errors, [spec_name] defaults to [file]'s basename. *)

val attach_software :
  name:string ->
  expression:string ->
  report:string ->
  Series.t ->
  (Series.t, Diag.t) result
(** Add one software stall category scanned from a runtime report
    ({!Ingest.attach_software}). *)

val load_report : string -> (string, Diag.t) result
(** Read a report file whole ({!Ingest.load_report}). *)

(** {1 Stages B and C — predict} *)

val predict :
  ?config:Config.t ->
  series:Series.t ->
  target_max:int ->
  unit ->
  (Prediction.t, Diag.t) result
(** Run the staged pipeline under [config] (default {!Config.default})
    by delegating to {!Predictor.predict}; never raises — see {!Diag} for
    the failure vocabulary.  [target_max] runs from the measured window's
    largest core count up to 1024: a target below the window is a
    {!Diag.Target_below_window} and one above 1024 a {!Diag.Bad_config}
    (stage [Extrapolate], exit code 2 either way), returned before any
    fit.  The modelled machines stop at 48 cores, while the work, the
    target grid and the rendered answer grow with the target (one
    served kmeans predict at [--jobs 1] on a 2-vCPU x86 host: 22 ms and
    a 39 KB answer at 1024 cores, 4 s and 35 MB at 10{^6}), so the
    limit leaves 20x headroom and bounds what one request costs.  The
    fan-out width is the process-wide {!Estima_par.Fanout} knob. *)

val predict_traced :
  ?config:Config.t ->
  series:Series.t ->
  target_max:int ->
  unit ->
  (Prediction.t, Diag.t) result * string option
(** Like {!predict} but honouring [config.trace]: with [Some fmt] the
    pipeline runs under a recorder and the rendered audit trace (text or
    JSON, per [fmt]) is returned alongside the result — also when the
    pipeline fails, which is exactly when the trace explains the most.
    The traced pipeline runs on the calling domain.  With
    [config.trace = None] this is [predict] paired with [None]. *)

val predict_with_confidence :
  ?config:Config.t ->
  ?resamples:int ->
  ?residual_scale:float ->
  series:Series.t ->
  target_max:int ->
  unit ->
  (Prediction.t * Confidence.t, Diag.t) result
(** {!predict} plus a residual-bootstrap uncertainty estimate
    ({!Confidence.estimate}): the pipeline is refitted on [resamples]
    (default 100) perturbed copies of the measured window, seeded by 42
    (the collection default), and the ensemble is summarised as 90%
    ({!Confidence.level}) confidence bands, a stop-point interval and a
    risk-aware verdict.  Deterministic and byte-identical at any jobs
    setting.  [residual_scale] (default 1.0) is a calibration instrument
    — shrinking it deliberately mis-calibrates the bands, which the
    validation gate must detect; leave it alone otherwise.  A
    [resamples] outside {!validate_resamples}' range is its typed
    {!Diag.Bad_config}, returned before the point prediction runs;
    pipeline failures are the same diagnostics {!predict} returns. *)

val validate_resamples : resamples:int -> (unit, Diag.t) result
(** Check a bootstrap resample count before any work: it must be 1 to
    1000, since each resample is a full pipeline refit (about 14 ms for
    a 12-core series at [--jobs 1]).  A violation is a typed
    {!Diag.Bad_config} (stage [Translate], subject ["confidence"], exit
    code 2).  {!predict_with_confidence}, [estima_cli predict] and
    [compare] and the server's confidence requests all apply it. *)

(** {1 Rendering}

    The canonical textual forms of a prediction, shared by [estima_cli
    predict] and the [estima_serve] wire responses. *)

val render_summary : Prediction.t -> string
(** {!Predictor.pp_summary} as a string: workload, machines, the chosen
    kernel per category and the factor correlation. *)

val render_rows : Prediction.t -> string list
(** One line per target core count: cores, predicted time, stalls per
    core — the rows of the [estima_cli predict] table, byte-identical. *)

val rows_header : string
(** The column header above {!render_rows}. *)

val verdict : Prediction.t -> Quality.verdict
(** {!Quality.scaling_verdict} of the predicted curve. *)

val render_verdict : Prediction.t -> string
(** ["the application scales"] / ["the application stops at N cores"] —
    the phrase both binaries print. *)

val render_text : Prediction.t -> string
(** Everything [estima_cli predict] prints for a prediction: the
    summary, a blank line, {!rows_header}, one line per {!render_rows}
    row, a blank line and ["prediction: "] followed by
    {!render_verdict}, each line newline-terminated. *)

val render_confidence_summary : Confidence.t -> string
(** One line describing the ensemble:
    ["confidence: 90% bands from 100/100 bootstrap resamples (seed 42)"]. *)

val confidence_rows_header : Confidence.t -> string
(** The column header above {!render_confidence_rows} (quantile names
    follow the estimate's level, e.g. p5/p50/p95 at 0.90). *)

val render_confidence_rows : Prediction.t -> Confidence.t -> string list
(** One line per target core count: cores, band low, median, band high —
    aligned with {!render_rows}, shared verbatim by [estima_cli predict
    --confidence] and the service's confidence block. *)

val render_confidence_verdict : Confidence.t -> string
(** ["the application "] followed by {!Confidence.verdict_to_string}. *)
