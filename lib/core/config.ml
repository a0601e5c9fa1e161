open Estima_kernels

type trace_format = Text | Json

type t = {
  checkpoints : int;
  kernels : Kernel.t list;
  include_software : bool;
  frequency_scale : float;
  dataset_factor : float;
  trace : trace_format option;
}

let default =
  {
    checkpoints = Approximation.default_config.Approximation.checkpoints;
    kernels = Approximation.default_config.Approximation.kernels;
    include_software = false;
    frequency_scale = 1.0;
    dataset_factor = 1.0;
    trace = None;
  }

let make ?(checkpoints = default.checkpoints) ?(include_software = default.include_software)
    ?(dataset_factor = default.dataset_factor) ?measured_on ?target ?trace () =
  let frequency_scale =
    match (measured_on, target) with
    | Some measured_on, Some target -> Estima_machine.Frequency.time_scale ~measured_on ~target
    | _ -> default.frequency_scale
  in
  { default with checkpoints; include_software; frequency_scale; dataset_factor; trace }

let approximation t =
  { Approximation.default_config with Approximation.checkpoints = t.checkpoints; kernels = t.kernels }

let predictor t =
  {
    Predictor.default_config with
    Predictor.approximation = approximation t;
    include_software = t.include_software;
    frequency_scale = t.frequency_scale;
    dataset_factor = t.dataset_factor;
  }

let validate t =
  let bad what = Diag.error ~stage:Diag.Collect ~subject:"config" (Diag.Bad_config { what }) in
  if t.checkpoints <= 0 then bad (Printf.sprintf "checkpoints = %d (need > 0)" t.checkpoints)
  else if t.frequency_scale <= 0.0 then
    bad (Printf.sprintf "frequency_scale = %g (need > 0)" t.frequency_scale)
  else if t.dataset_factor <= 0.0 then
    bad (Printf.sprintf "dataset_factor = %g (need > 0)" t.dataset_factor)
  else Ok ()

(* Shared command-line vocabulary: defining each term once is what keeps
   the three binaries' spellings, defaults and error messages from
   drifting apart. *)
module Args = struct
  open Cmdliner
  open Estima_machine

  let machine ~default names doc =
    let parse s =
      Option.to_result (Machines.find s)
        ~none:
          (`Msg
            (Printf.sprintf "unknown machine %S (known: %s)" s
               (String.concat ", " (List.map (fun m -> m.Topology.name) Machines.all))))
    in
    let print ppf m = Format.pp_print_string ppf m.Topology.name in
    Arg.(value & opt (conv (parse, print)) default & info names ~docv:"MACHINE" ~doc)

  let sockets =
    let doc = "Restrict the measurements machine to its first $(docv) sockets." in
    Arg.(value & opt (some int) None & info [ "sockets" ] ~docv:"N" ~doc)

  (* HOST:PORT, split at the last ':' so a future bracketed-IPv6 host
     still has a chance; PORT is decimal digits only (int_of_string alone
     would read 0x50 or 8_0 as 80), and 0 is a listener's request for a
     kernel-assigned port. *)
  let tcp doc =
    let parse s =
      let bad = Error (`Msg (Printf.sprintf "bad TCP address %S (expected HOST:PORT)" s)) in
      match String.rindex_opt s ':' with
      | None -> bad
      | Some i -> (
          let host = String.sub s 0 i and port = String.sub s (i + 1) (String.length s - i - 1) in
          let digits = String.for_all (fun c -> c >= '0' && c <= '9') port in
          match int_of_string_opt port with
          | Some p when digits && p <= 65535 && host <> "" -> Ok (host, p)
          | _ -> bad)
    in
    let print ppf (host, port) = Format.fprintf ppf "%s:%d" host port in
    Arg.(value & opt (some (conv (parse, print))) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Run parallel work on $(docv) domains.  In $(b,estima_cli) that is the fit \
             search, the confidence bootstrap and the paper experiments, and the default is \
             $(b,ESTIMA_JOBS), else the host's available parallelism.  In $(b,estima_serve) the \
             default is 1 ($(b,ESTIMA_JOBS) has no effect there): requests are answered one at \
             a time, and each uncached one fans its fit search and bootstrap out.  Results are \
             byte-identical to a sequential run regardless of $(docv).")

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
            "Attach bootstrap confidence bands to the prediction: refit the pipeline on $(docv)            residual resamples of the measured window (default 100; 1 to 1000, checked before            anything is printed) and report p5/p50/p95            predicted times, a stop-point interval and a risk-aware verdict.  Deterministic            and byte-identical at any $(b,--jobs).")
end
