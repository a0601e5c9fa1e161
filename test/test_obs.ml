(* Tests for the fit-selection observability layer: trace sink mechanics,
   the recorder, audit aggregation, the renderers, and the guarantee that
   tracing never changes the numbers it observes. *)

open Estima_machine
open Estima_counters
open Estima
module Trace = Estima_obs.Trace
module Recorder = Estima_obs.Recorder
module Audit = Estima_obs.Audit
module Trace_render = Estima_obs.Trace_render
module Json = Estima_json.Json

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let candidate ?(stage = Trace.stall_stage) ?(subject = "cat") ~kernel ~prefix ~verdict ~score () =
  Trace.Candidate { stage; subject; kernel; prefix; verdict; score; detail = "test" }

let winner ?(stage = Trace.stall_stage) ?(subject = "cat") ~kernel ~prefix ~score () =
  Trace.Winner { stage; subject; kernel; prefix; score; correlation = Float.nan }

let fit_attempt status = Trace.Fit_attempt { kernel = "rat22"; points = 5; status }

let fitted ~lm_converged = fit_attempt (Trace.Fitted { rmse = 0.1; lm_converged })

(* A synthetic but well-behaved measurement series: one hardware category
   growing linearly, times tracking stalls per core with a constant-ish
   factor.  Small and deterministic, so obs tests stay fast. *)
let synthetic_series () =
  let sample n =
    let fn = float_of_int n in
    let stalls = (500.0 *. fn) +. (100.0 *. fn *. fn) in
    {
      Sample.threads = n;
      time_seconds = 2e-6 *. stalls /. fn;
      cycles = 2e9;
      counters = [ ("0D2h", stalls) ];
      software = [];
      footprint_lines = 1_000;
      useful_cycles = 1e6;
    }
  in
  Series.make ~machine:Machines.opteron48 ~spec_name:"synthetic"
    (List.init 10 (fun i -> sample (i + 1)))

(* ------------------------------------------------------------------ *)
(* Trace sink mechanics                                                *)
(* ------------------------------------------------------------------ *)

let test_disabled_without_sink () =
  Alcotest.(check bool) "no sink installed" false (Trace.enabled ());
  (* emit / with_span are no-ops and pass values through. *)
  Trace.emit (winner ~kernel:"rat22" ~prefix:5 ~score:0.1 ());
  Trace.emit (fit_attempt Trace.Diverged);
  Alcotest.(check int) "with_span is transparent" 42 (Trace.with_span "outer" (fun () -> 42));
  Alcotest.(check (list string)) "no span path outside spans" [] (Trace.span_path ())

let test_recorder_captures_events_and_counters () =
  let r = Recorder.create () in
  Recorder.record r (fun () ->
      Alcotest.(check bool) "enabled inside record" true (Trace.enabled ());
      Trace.with_span "stage-a" (fun () ->
          Alcotest.(check (list string)) "span path visible" [ "stage-a" ] (Trace.span_path ());
          Trace.emit (candidate ~kernel:"rat22" ~prefix:3 ~verdict:Trace.Accepted ~score:0.5 ());
          Trace.emit (fitted ~lm_converged:true);
          Trace.emit (fitted ~lm_converged:true);
          Trace.emit (fit_attempt Trace.No_guesses)));
  Alcotest.(check bool) "disabled after record" false (Trace.enabled ());
  let events = Recorder.events r in
  Alcotest.(check int) "four events" 4 (List.length events);
  let e = List.hd events in
  Alcotest.(check (list string)) "event carries span path" [ "stage-a" ] e.Trace.span;
  Alcotest.(check (list (pair string int)))
    "counters derived from the fit attempts, zeros omitted"
    [ ("fit.attempts", 3); ("fit.failed", 1); ("fit.lm-converged", 2) ]
    (Recorder.counters r);
  match Recorder.span_stats r with
  | [ s ] ->
      Alcotest.(check (list string)) "span stat path" [ "stage-a" ] s.Recorder.path;
      Alcotest.(check int) "span closed once" 1 s.Recorder.count
  | stats -> Alcotest.failf "expected one span stat, got %d" (List.length stats)

let test_recorder_restores_sink_on_raise () =
  let r = Recorder.create () in
  (try Recorder.record r (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "sink restored after raise" false (Trace.enabled ())

let test_nested_recorders_tee () =
  let outer = Recorder.create () in
  let inner = Recorder.create () in
  Recorder.record outer (fun () ->
      Recorder.record inner (fun () ->
          Trace.emit (fitted ~lm_converged:false)));
  Alcotest.(check int) "inner saw the event" 1 (List.length (Recorder.events inner));
  Alcotest.(check int) "outer saw it too (tee)" 1 (List.length (Recorder.events outer));
  Alcotest.(check (list (pair string int))) "outer counters forwarded"
    [ ("fit.attempts", 1); ("fit.lm-unconverged", 1) ]
    (Recorder.counters outer)

let test_span_nesting_paths () =
  let r = Recorder.create () in
  Recorder.record r (fun () ->
      Trace.with_span "a" (fun () ->
          Trace.with_span "b" (fun () -> Trace.emit (fit_attempt Trace.Diverged))));
  let paths = List.map (fun s -> s.Recorder.path) (Recorder.span_stats r) in
  Alcotest.(check bool) "inner path recorded" true (List.mem [ "a"; "b" ] paths);
  Alcotest.(check bool) "outer path recorded" true (List.mem [ "a" ] paths)

(* Processor time stands still while the process sleeps; the default
   clock must not. *)
let test_default_clock_counts_waiting () =
  Trace.set_clock Trace.default_clock;
  let r = Recorder.create () in
  Recorder.record r (fun () -> Trace.with_span "sleep" (fun () -> Unix.sleepf 0.05));
  match Recorder.span_stats r with
  | [ s ] ->
      let ms = Int64.to_float s.Recorder.total_ns /. 1e6 in
      if ms < 40.0 then Alcotest.failf "a 50 ms sleep spanned %.3f ms" ms
  | stats -> Alcotest.failf "expected one span stat, got %d" (List.length stats)

(* ------------------------------------------------------------------ *)
(* Audit aggregation                                                   *)
(* ------------------------------------------------------------------ *)

let test_audit_groups_by_subject () =
  let r = Recorder.create () in
  Recorder.record r (fun () ->
      Trace.emit
        (candidate ~subject:"0D2h" ~kernel:"rat22" ~prefix:3
           ~verdict:(Trace.Rejected Trace.Realism) ~score:Float.nan ());
      Trace.emit
        (candidate ~subject:"0D2h" ~kernel:"rat23" ~prefix:3
           ~verdict:(Trace.Rejected Trace.Growth_cap) ~score:Float.nan ());
      Trace.emit
        (candidate ~subject:"0D2h" ~kernel:"rat33" ~prefix:4 ~verdict:Trace.Accepted ~score:0.3 ());
      Trace.emit (winner ~subject:"0D2h" ~kernel:"rat33" ~prefix:4 ~score:0.3 ());
      Trace.emit
        (candidate ~stage:Trace.factor_stage ~subject:Trace.factor_subject ~kernel:"ConstantFactor"
           ~prefix:8 ~verdict:Trace.Accepted ~score:0.1 ()));
  let audit = Audit.of_events (Recorder.events r) in
  Alcotest.(check int) "two records" 2 (List.length audit);
  match Audit.find audit ~stage:Trace.stall_stage ~subject:"0D2h" with
  | None -> Alcotest.fail "stall record missing"
  | Some record ->
      Alcotest.(check int) "three candidates" 3 (List.length record.Audit.candidates);
      Alcotest.(check int) "two rejected" 2 (List.length (Audit.rejected record));
      (match record.Audit.winner with
      | Some w -> Alcotest.(check string) "winner kernel" "rat33" w.Audit.kernel
      | None -> Alcotest.fail "winner missing");
      let counts = Audit.rejection_counts record in
      Alcotest.(check int) "realism counted" 1 (List.assoc Trace.Realism counts);
      Alcotest.(check int) "growth cap counted" 1 (List.assoc Trace.Growth_cap counts);
      Alcotest.(check bool) "tie break omitted when zero" true
        (not (List.mem_assoc Trace.Tie_break counts))

let test_gate_names () =
  List.iter
    (fun (gate, name) -> Alcotest.(check string) "gate name" name (Trace.gate_to_string gate))
    [
      (Trace.Fit_failed, "fit-failed");
      (Trace.Non_finite, "non-finite");
      (Trace.Realism, "realism");
      (Trace.Growth_cap, "growth-cap");
      (Trace.Slope, "slope");
      (Trace.Factor_range, "factor-range");
      (Trace.Tie_break, "tie-break");
    ]

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)
(* ------------------------------------------------------------------ *)

let predict_ok ~series ~target_max =
  match Predictor.predict ~series ~target_max () with
  | Ok p -> p
  | Error d -> Alcotest.failf "predict: %s" (Diag.render d)

let recorded_prediction () =
  let r = Recorder.create () in
  let p =
    Recorder.record r (fun () -> predict_ok ~series:(synthetic_series ()) ~target_max:20)
  in
  (r, p)

let test_text_render_mentions_stages () =
  let r, _ = recorded_prediction () in
  let text = Format.asprintf "%a" Trace_render.pp_recorder r in
  List.iter
    (fun needle ->
      let contains =
        let nl = String.length needle and tl = String.length text in
        let rec scan i = i + nl <= tl && (String.sub text i nl = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (Printf.sprintf "report mentions %S" needle) true contains)
    [ "fit-selection audit"; Trace.stall_stage; Trace.factor_stage; "counters"; "0D2h" ]

let test_json_render_shape () =
  let r, _ = recorded_prediction () in
  let json = Trace_render.json_of_recorder r in
  Alcotest.(check bool) "object open" true (String.length json > 2 && json.[0] = '{');
  Alcotest.(check bool) "object close" true (json.[String.length json - 1] = '}' || json.[String.length json - 1] = '\n');
  let contains needle =
    let nl = String.length needle and tl = String.length json in
    let rec scan i = i + nl <= tl && (String.sub json i nl = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun key -> Alcotest.(check bool) (Printf.sprintf "has %s" key) true (contains key))
    [ "\"events\""; "\"audit\""; "\"spans\""; "\"counters\""; "\"stall-fit\"" ];
  (* Correlation is nan for zero/stall winners: must never leak a bare nan
     token into the JSON (non-finite floats render as null). *)
  Alcotest.(check bool) "no bare nan" true (not (contains "nan"))

let test_json_escapes_strings () =
  let r = Recorder.create () in
  Recorder.record r (fun () ->
      Trace.emit (Trace.Note { stage = "s"; subject = "quote\"back\\slash"; text = "tab\there" }));
  let json = Trace_render.json_of_recorder r in
  let contains needle =
    let nl = String.length needle and tl = String.length json in
    let rec scan i = i + nl <= tl && (String.sub json i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "escaped quote" true (contains "quote\\\"back\\\\slash");
  Alcotest.(check bool) "escaped tab" true (contains "tab\\there")

(* The trace is an output format ([--trace=json] and the text audit), so
   its bytes are pinned: under a constant clock the synthetic prediction
   renders exactly as the snapshots under test/golden/, and the codec
   reads the JSON back and reprints it unchanged. *)
let test_trace_snapshot () =
  let read name = In_channel.with_open_bin (Filename.concat "golden" name) In_channel.input_all in
  Trace.set_clock (fun () -> 0L);
  let r, _ =
    Fun.protect ~finally:(fun () -> Trace.set_clock Trace.default_clock) recorded_prediction
  in
  let json = Trace_render.json_of_recorder r in
  Alcotest.(check string) "json bytes" (read "trace_synthetic.json") json;
  Alcotest.(check string) "text bytes" (read "trace_synthetic.txt")
    (Format.asprintf "%a" Trace_render.pp_recorder r);
  match Json.parse json with
  | Ok v ->
      Alcotest.(check string) "codec reprints the trace"
        (String.sub json 0 (String.length json - 1))
        (Json.to_string v)
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e

(* ------------------------------------------------------------------ *)
(* The pipeline under trace                                            *)
(* ------------------------------------------------------------------ *)

let test_predictions_byte_identical_with_tracing () =
  let series = synthetic_series () in
  let plain = predict_ok ~series ~target_max:20 in
  let r = Recorder.create () in
  let traced = Recorder.record r (fun () -> predict_ok ~series ~target_max:20) in
  Alcotest.(check bool) "events were recorded" true (Recorder.events r <> []);
  Array.iteri
    (fun i t ->
      if not (Int64.equal (Int64.bits_of_float t) (Int64.bits_of_float plain.Predictor.predicted_times.(i)))
      then Alcotest.failf "prediction differs under tracing at %d: %h vs %h" (i + 1) t
          plain.Predictor.predicted_times.(i))
    traced.Predictor.predicted_times;
  Alcotest.(check bool) "factor identical" true
    (Int64.equal
       (Int64.bits_of_float plain.Predictor.factor.Scaling_factor.correlation)
       (Int64.bits_of_float traced.Predictor.factor.Scaling_factor.correlation))

let test_predictor_attaches_audit_only_when_traced () =
  let series = synthetic_series () in
  let plain = predict_ok ~series ~target_max:20 in
  Alcotest.(check bool) "no audit without sink" true (plain.Predictor.audit = None);
  let r = Recorder.create () in
  let traced = Recorder.record r (fun () -> predict_ok ~series ~target_max:20) in
  match traced.Predictor.audit with
  | None -> Alcotest.fail "audit missing under tracing"
  | Some audit ->
      Alcotest.(check bool) "stall category audited" true
        (Audit.find audit ~stage:Trace.stall_stage ~subject:"0D2h" <> None);
      Alcotest.(check bool) "factor audited" true
        (Audit.find audit ~stage:Trace.factor_stage ~subject:Trace.factor_subject <> None)

let test_audit_explains_rejections () =
  (* The acceptance bar: for at least one stall category the audit lists
     rejected (kernel, prefix) candidates, each naming its gate, alongside
     the winner's score. *)
  let r, p = recorded_prediction () in
  ignore p;
  let audit = Audit.of_events (Recorder.events r) in
  let stall_records = List.filter (fun rec_ -> rec_.Audit.stage = Trace.stall_stage) audit in
  Alcotest.(check bool) "at least one stall category" true (stall_records <> []);
  let with_rejections =
    List.filter (fun rec_ -> Audit.rejected rec_ <> [] && rec_.Audit.winner <> None) stall_records
  in
  Alcotest.(check bool) "some category had rejected candidates and a winner" true
    (with_rejections <> []);
  List.iter
    (fun rec_ ->
      List.iter
        (fun c ->
          match c.Audit.verdict with
          | Trace.Rejected _ -> Alcotest.(check bool) "rejection explained" true (c.Audit.detail <> "")
          | Trace.Accepted -> ())
        rec_.Audit.candidates;
      match rec_.Audit.winner with
      | Some w -> Alcotest.(check bool) "winner scored" true (Float.is_finite w.Audit.score)
      | None -> ())
    with_rejections

let test_fit_attempt_counters () =
  let r, _ = recorded_prediction () in
  let counters = Recorder.counters r in
  let attempts = try List.assoc "fit.attempts" counters with Not_found -> 0 in
  Alcotest.(check bool) "kernel fits counted" true (attempts > 0);
  let accounted =
    List.fold_left
      (fun acc name -> acc + (try List.assoc name counters with Not_found -> 0))
      0
      [ "fit.lm-converged"; "fit.lm-unconverged"; "fit.failed" ]
  in
  Alcotest.(check int) "every attempt accounted for" attempts accounted

let test_span_timings_cover_pipeline () =
  let r, _ = recorded_prediction () in
  let paths = List.map (fun s -> s.Recorder.path) (Recorder.span_stats r) in
  Alcotest.(check bool) "predict span" true (List.mem [ "predict" ] paths);
  Alcotest.(check bool) "extrapolate span" true (List.mem [ "predict"; "extrapolate" ] paths);
  Alcotest.(check bool) "factor span" true (List.mem [ "predict"; "factor" ] paths);
  Alcotest.(check bool) "category span" true
    (List.mem [ "predict"; "extrapolate"; "category:0D2h" ] paths)

let suite =
  [
    ("disabled without sink", `Quick, test_disabled_without_sink);
    ("recorder captures events and counters", `Quick, test_recorder_captures_events_and_counters);
    ("recorder restores sink on raise", `Quick, test_recorder_restores_sink_on_raise);
    ("nested recorders tee", `Quick, test_nested_recorders_tee);
    ("span nesting paths", `Quick, test_span_nesting_paths);
    ("default clock counts time spent waiting", `Quick, test_default_clock_counts_waiting);
    ("audit groups by subject", `Quick, test_audit_groups_by_subject);
    ("gate names", `Quick, test_gate_names);
    ("text render mentions stages", `Quick, test_text_render_mentions_stages);
    ("json render shape", `Quick, test_json_render_shape);
    ("json escapes strings", `Quick, test_json_escapes_strings);
    ("trace snapshot bytes", `Quick, test_trace_snapshot);
    ("predictions byte identical with tracing", `Quick, test_predictions_byte_identical_with_tracing);
    ("predictor attaches audit only when traced", `Quick, test_predictor_attaches_audit_only_when_traced);
    ("audit explains rejections", `Quick, test_audit_explains_rejections);
    ("fit attempt counters", `Quick, test_fit_attempt_counters);
    ("span timings cover pipeline", `Quick, test_span_timings_cover_pipeline);
  ]
