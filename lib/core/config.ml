open Estima_kernels

type trace_format = Text | Json

type t = {
  checkpoints : int;
  min_prefix : int;
  kernels : Kernel.t list;
  include_software : bool;
  include_frontend : bool;
  frequency_scale : float;
  dataset_factor : float;
  trace : trace_format option;
}

let default =
  {
    checkpoints = Approximation.default_config.Approximation.checkpoints;
    min_prefix = Approximation.default_config.Approximation.min_prefix;
    kernels = Approximation.default_config.Approximation.kernels;
    include_software = false;
    include_frontend = false;
    frequency_scale = 1.0;
    dataset_factor = 1.0;
    trace = None;
  }

let make ?(checkpoints = default.checkpoints) ?(min_prefix = default.min_prefix)
    ?(kernels = default.kernels) ?(include_software = default.include_software)
    ?(include_frontend = default.include_frontend) ?frequency_scale
    ?(dataset_factor = default.dataset_factor) ?measured_on ?target ?trace () =
  let frequency_scale =
    match (frequency_scale, measured_on, target) with
    | Some s, _, _ -> s
    | None, Some measured_on, Some target -> Estima_machine.Frequency.time_scale ~measured_on ~target
    | None, _, _ -> default.frequency_scale
  in
  {
    checkpoints;
    min_prefix;
    kernels;
    include_software;
    include_frontend;
    frequency_scale;
    dataset_factor;
    trace;
  }

let approximation t =
  { Approximation.checkpoints = t.checkpoints; min_prefix = t.min_prefix; kernels = t.kernels }

let predictor t =
  {
    Predictor.approximation = approximation t;
    include_software = t.include_software;
    include_frontend = t.include_frontend;
    frequency_scale = t.frequency_scale;
    dataset_factor = t.dataset_factor;
  }

let validate t =
  let bad what = Diag.error ~stage:Diag.Collect ~subject:"config" (Diag.Bad_config { what }) in
  if t.checkpoints <= 0 then bad (Printf.sprintf "checkpoints = %d (need > 0)" t.checkpoints)
  else if t.min_prefix < 2 then bad (Printf.sprintf "min_prefix = %d (need >= 2)" t.min_prefix)
  else if t.frequency_scale <= 0.0 then
    bad (Printf.sprintf "frequency_scale = %g (need > 0)" t.frequency_scale)
  else if t.dataset_factor <= 0.0 then
    bad (Printf.sprintf "dataset_factor = %g (need > 0)" t.dataset_factor)
  else Ok ()

(* Shared command-line vocabulary.  estima_cli and estima_serve both
   accept --jobs/--store (and the CLI --trace, --window, --confidence);
   defining the terms once here is what keeps the two binaries'
   spellings, defaults and error messages from drifting apart. *)
module Args = struct
  open Cmdliner

  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Run parallel work on $(docv) domains (the fit search and the paper experiments in $(b,estima_cli), the request worker pool in $(b,estima_serve)).  Defaults to            $(b,ESTIMA_JOBS), or the binary's own default when unset.  Results are            byte-identical to a sequential run regardless of $(docv).")

  (* --jobs beats ESTIMA_JOBS; without it the env default stays in force. *)
  let apply_jobs = function
    | None -> ()
    | Some n when n >= 1 -> Estima_par.Fanout.set_jobs (Some n)
    | Some _ ->
        prerr_endline "estima: --jobs must be >= 1";
        exit 1

  let require_jobs ~default = function
    | None -> default
    | Some n when n >= 1 -> n
    | Some _ ->
        prerr_endline "estima: --jobs must be >= 1";
        exit 1

  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Persist measurement series in the content-addressed store under $(docv) and reuse            matching entries on later runs (also settable via $(b,ESTIMA_STORE)).  A warm            entry is byte-identical to a fresh collection, so outputs never change; default            off.")

  (* --store beats ESTIMA_STORE; without it the env default (read when the
     default store is first touched) stays in force. *)
  let apply_store = function
    | None -> ()
    | Some dir -> Estima_store.Store.set_dir (Estima_store.Store.default ()) (Some dir)

  let trace =
    let fmt = Arg.enum [ ("text", Text); ("json", Json) ] in
    Arg.(
      value
      & opt ~vopt:(Some Text) (some fmt) None
      & info [ "trace" ] ~docv:"FORMAT"
          ~doc:
            "Record a fit-selection audit trace and print it after the prediction: every (kernel,            prefix) candidate with the gate that rejected it (realism, growth cap, slope,            tie-break), the tie-break decisions, per-stage timings and counters.  $(docv) is            $(b,text) (default) or $(b,json).  Tracing never changes the predictions; a traced            run uses one domain whatever $(b,--jobs) says.")

  let window =
    Arg.(
      value
      & opt (some int) None
      & info [ "window"; "w" ] ~docv:"CORES"
          ~doc:"Highest core count measured (defaults to the measurements machine's cores).")

  let confidence =
    Arg.(
      value
      & opt ~vopt:(Some 100) (some int) None
      & info [ "confidence" ] ~docv:"RESAMPLES"
          ~doc:
            "Attach bootstrap confidence bands to the prediction: refit the pipeline on $(docv)            residual resamples of the measured window (default 100) and report p5/p50/p95            predicted times, a stop-point interval and a risk-aware verdict.  Deterministic            and byte-identical at any $(b,--jobs).")
end

(* The fields that decide the numbers, and nothing else: trace is
   observationally neutral by the Trace contract, so two configs
   differing only there must hash to the same cache key. *)
let fingerprint t =
  Printf.sprintf "estima-config-v1 c=%d p=%d k=%s sw=%b fe=%b fs=%.17g df=%.17g" t.checkpoints
    t.min_prefix
    (String.concat "," (List.map (fun k -> k.Kernel.name) t.kernels))
    t.include_software t.include_frontend t.frequency_scale t.dataset_factor
