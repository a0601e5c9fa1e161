module Json = Estima_json.Json
module Kernel = Estima_kernels.Kernel
module Lm = Estima_numerics.Lm

type options = {
  golden_dir : string;
  bless : bool;
  names : string list;
  differential : bool;
  perturb : bool;
  calibration : bool;
  calibration_resamples : int;
  perturb_calibration : bool;
}

let default_options ~golden_dir =
  {
    golden_dir;
    bless = false;
    names = Corpus.default_names;
    differential = true;
    perturb = false;
    calibration = false;
    calibration_resamples = Calibration.default_resamples;
    perturb_calibration = false;
  }

type outcome = {
  reports : Report.t list;
  summary : Report.summary;
  subset : bool;
  golden_mismatches : string list;
  differential_ran : bool;
  differential_mismatches : string list;
  calibration : Calibration.t option;
  blessed : string list;
  passed : bool;
}

(* Skew grows with the core count: a constant factor would be absorbed
   by the fitted coefficients and leave extrapolations untouched, while
   this drags every extrapolated stall curve away from the truth the
   further past the window it reaches. *)
let perturbed_kernels () =
  let skew x = 1.0 +. (0.005 *. x) in
  (* The honest objective against zero data writes eval values and their
     gradients; skewing both fits the skewed model, bit for bit as fitting
     the skewed eval with scaled gradient rows would. *)
  let skewed_objective (k : Kernel.t) ~xs ~ys =
    let m = Array.length xs in
    let honest = Kernel.residual_objective k ~xs ~ys:(Array.make m 0.0) in
    let residual_into p r =
      honest.Lm.residual_into p r;
      for i = 0 to m - 1 do
        r.(i) <- (r.(i) *. skew xs.(i)) -. ys.(i)
      done
    in
    let jacobian_into p jac =
      honest.Lm.jacobian_into p jac;
      let n = Array.length p in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          jac.((i * n) + j) <- jac.((i * n) + j) *. skew xs.(i)
        done
      done
    in
    Lm.objective ~residuals:m ~residual_into ~jacobian_into
  in
  List.map
    (fun (k : Kernel.t) ->
      Kernel.make ~name:k.Kernel.name ~arity:k.Kernel.arity
        ~eval:(fun p x -> k.Kernel.eval p x *. skew x)
        ~objective:(skewed_objective k) ~initial_guesses:k.Kernel.initial_guesses ~linear:k.Kernel.linear)
    Estima.Config.default.Estima.Config.kernels

let ( let* ) = Result.bind

let run options =
  let* specs =
    match Corpus.of_names options.names with
    | Ok specs -> Ok specs
    | Error msg ->
        Estima.Diag.error ~stage:Estima.Diag.Collect ~subject:"validate"
          (Estima.Diag.Bad_config { what = msg })
  in
  let sources = List.map Corpus.source specs in
  let backtest_sources =
    if not options.perturb then sources
    else
      List.map
        (fun (s : Backtest.source) ->
          {
            s with
            Backtest.config =
              { s.Backtest.config with Estima.Config.kernels = perturbed_kernels () };
          })
        sources
  in
  let* reports = Backtest.fan_out ~f:Backtest.run backtest_sources in
  let summary = Report.summarize reports in
  let subset = options.names <> Corpus.default_names in
  let invariant_mismatch =
    if summary.Report.invariant_ok then []
    else
      [
        "invariant: a workload is predicted to scale but measurably stops (scales_stops > 0)";
      ]
  in
  if options.bless then
    let blessed = Golden.bless ~dir:options.golden_dir reports summary in
    Ok
      {
        reports;
        summary;
        subset;
        golden_mismatches = invariant_mismatch;
        differential_ran = false;
        differential_mismatches = [];
        calibration = None;
        blessed;
        passed = summary.Report.invariant_ok;
      }
  else
    let golden_mismatches =
      Golden.compare_run ~dir:options.golden_dir reports
        (if subset then None else Some summary)
      @ invariant_mismatch
    in
    let differential_mismatches =
      if not options.differential then []
      else match Differential.run sources with Ok _ -> [] | Error mismatches -> mismatches
    in
    (* The calibration invariant: held-out coverage of the 90% bands.
       Always scored on the honest sources — --perturb skews the point
       predictions, which is the accuracy gate's business;
       --perturb-calibration shrinks the bootstrap's residuals instead,
       which only this check can catch. *)
    let* calibration =
      if not (options.calibration || options.perturb_calibration) then Ok None
      else
        let residual_scale = if options.perturb_calibration then 0.02 else 1.0 in
        match
          Calibration.run ~resamples:options.calibration_resamples ~residual_scale sources
        with
        | Ok c -> Ok (Some c)
        | Error d -> Error d
    in
    let calibration_mismatch =
      match calibration with
      | Some c when not c.Calibration.passed ->
          [
            Printf.sprintf
              "calibration: %.1f%% of held-out points inside the %g%% band (need %.0f%%)"
              (100.0 *. c.Calibration.coverage)
              (100.0 *. c.Calibration.level)
              (100.0 *. c.Calibration.threshold);
          ]
      | _ -> []
    in
    Ok
      {
        reports;
        summary;
        subset;
        golden_mismatches;
        differential_ran = options.differential;
        differential_mismatches;
        calibration;
        blessed = [];
        passed =
          golden_mismatches = [] && differential_mismatches = [] && calibration_mismatch = [];
      }

let render_text outcome =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Report.table outcome.reports);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Report.summary_lines outcome.summary);
  if outcome.subset then
    Buffer.add_string buf
      "note: subset run — aggregate statistics are not compared against the golden summary\n";
  (match outcome.blessed with
  | [] -> ()
  | paths ->
      Buffer.add_string buf "\nblessed:\n";
      List.iter (fun p -> Buffer.add_string buf ("  " ^ p ^ "\n")) paths);
  (match outcome.golden_mismatches with
  | [] -> if outcome.blessed = [] then Buffer.add_string buf "\ngolden: ok\n"
  | ms ->
      Buffer.add_string buf "\ngolden mismatches:\n";
      List.iter (fun m -> Buffer.add_string buf ("  " ^ m ^ "\n")) ms);
  (match outcome.differential_mismatches with
  | [] ->
      if outcome.differential_ran then
        Buffer.add_string buf "differential (cli = api = server): ok\n"
  | ms ->
      Buffer.add_string buf "differential mismatches:\n";
      List.iter (fun m -> Buffer.add_string buf ("  " ^ m ^ "\n")) ms);
  (match outcome.calibration with
  | None -> ()
  | Some c ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Calibration.render_lines c));
  Buffer.add_string buf (if outcome.passed then "\nvalidate: PASS\n" else "\nvalidate: FAIL\n");
  Buffer.contents buf

let json_of_outcome outcome =
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("reports", Json.List (List.map Report.to_json outcome.reports));
      ("summary", Report.summary_to_json outcome.summary);
      ("subset", Json.Bool outcome.subset);
      ( "golden_mismatches",
        Json.List (List.map (fun m -> Json.String m) outcome.golden_mismatches) );
      ("differential_ran", Json.Bool outcome.differential_ran);
      ( "differential_mismatches",
        Json.List (List.map (fun m -> Json.String m) outcome.differential_mismatches) );
      ( "calibration",
        match outcome.calibration with None -> Json.Null | Some c -> Calibration.to_json c );
      ("blessed", Json.List (List.map (fun p -> Json.String p) outcome.blessed));
      ("passed", Json.Bool outcome.passed);
    ]
