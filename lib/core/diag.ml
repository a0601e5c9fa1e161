module Trace = Estima_obs.Trace

type stage = Collect | Extrapolate | Translate | Serve

let stage_label = function
  | Collect -> "collect"
  | Extrapolate -> "extrapolate"
  | Translate -> "translate"
  | Serve -> "serve"

type cause =
  | Parse_error of { file : string; line : int; msg : string }
  | Short_series of { points : int; needed : int }
  | Mismatched_lengths of { what : string; expected : int; got : int }
  | Missing_category of { category : string; threads : int }
  | Bad_config of { what : string }
  | Bad_value of { what : string; value : float }
  | Target_below_window of { target : int; window : int }
  | No_realistic_fit of { window : int }
  | Overloaded of { pending : int; capacity : int }
  | Deadline_exceeded of { waited_ms : int; timeout_ms : int }
  | Frame_too_large of { buffered : int; limit : int }
  | Internal_error of { exn : string; backtrace : string }

let cause_label = function
  | Parse_error _ -> "parse-error"
  | Short_series _ -> "short-series"
  | Mismatched_lengths _ -> "mismatched-lengths"
  | Missing_category _ -> "missing-category"
  | Bad_config _ -> "bad-config"
  | Bad_value _ -> "bad-value"
  | Target_below_window _ -> "target-below-window"
  | No_realistic_fit _ -> "no-realistic-fit"
  | Overloaded _ -> "overloaded"
  | Deadline_exceeded _ -> "deadline-exceeded"
  | Frame_too_large _ -> "frame-too-large"
  | Internal_error _ -> "internal"

(* Human rendering of the cause alone. *)
let cause_message = function
  | Parse_error { file; line; msg } ->
      if line > 0 then Printf.sprintf "%s:%d: %s" file line msg
      else Printf.sprintf "%s: %s" file msg
  | Short_series { points; needed } ->
      Printf.sprintf "series too short: %d point%s measured, %d needed" points
        (if points = 1 then "" else "s")
        needed
  | Mismatched_lengths { what; expected; got } ->
      Printf.sprintf "mismatched lengths: %s has %d element%s, expected %d" what got
        (if got = 1 then "" else "s")
        expected
  | Missing_category { category; threads } ->
      Printf.sprintf "stall category %s is missing from the %d-thread sample" category threads
  | Bad_config { what } -> Printf.sprintf "bad configuration: %s" what
  | Bad_value { what; value } -> Printf.sprintf "bad value: %s is %g" what value
  | Target_below_window { target; window } ->
      Printf.sprintf "target of %d cores is below the measurement window (measured <= %d cores)"
        target window
  | No_realistic_fit { window } ->
      Printf.sprintf "no realistic fit (measured window <= %d cores)" window
  | Overloaded { pending; capacity } ->
      Printf.sprintf "request shed: queue full (%d pending, capacity %d); retry later" pending
        capacity
  | Deadline_exceeded { waited_ms; timeout_ms } ->
      Printf.sprintf "request shed: waited %d ms in the queue, past its %d ms deadline" waited_ms
        timeout_ms
  | Frame_too_large { buffered; limit } ->
      Printf.sprintf
        "frame shed: %d bytes buffered without a newline, past the %d byte frame limit" buffered
        limit
  | Internal_error { exn; backtrace } ->
      if backtrace = "" then Printf.sprintf "internal error: %s" exn
      else Printf.sprintf "internal error: %s | %s" exn backtrace

type t = { stage : stage; subject : string; cause : cause }

let make ~stage ~subject cause = { stage; subject; cause }

let render t =
  Printf.sprintf "estima: [%s] %s: %s" (stage_label t.stage) t.subject (cause_message t.cause)

let error ~stage ~subject cause =
  let t = make ~stage ~subject cause in
  if Trace.enabled () then
    Trace.emit
      (Trace.Diagnostic
         {
           stage = stage_label stage;
           subject;
           cause = cause_label cause;
           detail = cause_message cause;
         });
  Error t

let exit_code t =
  match t.cause with
  | No_realistic_fit _ -> 3
  | Overloaded _ | Deadline_exceeded _ -> 4
  | Internal_error _ -> 5
  | _ -> 2

(* A diagnostic must stay a one-line wire payload of sane size, so the
   captured backtrace is flattened and clipped; [Printexc] output is
   newline-separated frames, most recent first, and the first few frames
   are the ones that identify the crash site. *)
let backtrace_budget = 600

let of_exn ?(stage = Serve) ~subject exn raw_backtrace =
  let flatten s =
    String.concat " <- "
      (String.split_on_char '\n' (String.trim s) |> List.map String.trim
      |> List.filter (fun l -> l <> ""))
  in
  let backtrace = flatten (Printexc.raw_backtrace_to_string raw_backtrace) in
  let backtrace =
    if String.length backtrace <= backtrace_budget then backtrace
    else String.sub backtrace 0 backtrace_budget ^ "..."
  in
  make ~stage ~subject (Internal_error { exn = Printexc.to_string exn; backtrace })

(* Prediction-quality metrics, folded in from the pre-Diag lib/core/error.ml
   (the module was called [Error] when pipeline failures were still
   exceptions; see diag.mli for why it lives here now). *)
module Quality = struct
  type verdict = Scales | Stops_at of int

  type t = {
    max_error : float;
    mean_error : float;
    per_point : (int * float) list;
    predicted_verdict : verdict;
    measured_verdict : verdict;
    verdict_agrees : bool;
  }

  let scaling_verdict ?(tolerance = 0.05) ~times ~grid () =
    if Array.length times = 0 || Array.length times <> Array.length grid then
      invalid_arg "Diag.Quality.scaling_verdict: bad input";
    let n = Array.length times in
    (* The application stops scaling at the first core count after which no
       later point improves on it by more than [tolerance]. *)
    let best_after = Array.make n Float.infinity in
    for i = n - 2 downto 0 do
      best_after.(i) <- Float.min times.(i + 1) best_after.(i + 1)
    done;
    let stop = ref (n - 1) in
    (try
       for i = 0 to n - 2 do
         if best_after.(i) >= times.(i) *. (1.0 -. tolerance) then begin
           stop := i;
           raise Exit
         end
       done
     with Exit -> ());
    if float_of_int !stop >= 0.8 *. float_of_int (n - 1) then Scales
    else Stops_at (int_of_float grid.(!stop))

  let verdict_to_string = function
    | Scales -> "scales"
    | Stops_at k -> Printf.sprintf "stops at %d cores" k

  let agreement ~predicted ~measured =
    match (predicted, measured) with
    | Scales, Scales -> true
    | Stops_at a, Stops_at b ->
        let a = float_of_int a and b = float_of_int b in
        Float.abs (a -. b) <= (1.0 /. 3.0) *. Float.max a b
    | Scales, Stops_at _ | Stops_at _, Scales -> false

  let evaluate ~predicted ~measured ~target_grid ?(from_threads = 1) () =
    let n = Array.length predicted in
    if n = 0 || n <> Array.length measured || n <> Array.length target_grid then
      invalid_arg "Diag.Quality.evaluate: inconsistent lengths";
    if Array.exists (fun t -> t <= 0.0) measured then
      invalid_arg "Diag.Quality.evaluate: non-positive measured time";
    let per_point =
      Array.to_list target_grid
      |> List.mapi (fun i g ->
             (int_of_float g, Float.abs ((predicted.(i) -. measured.(i)) /. measured.(i))))
      |> List.filter (fun (threads, _) -> threads >= from_threads)
    in
    if per_point = [] then invalid_arg "Diag.Quality.evaluate: no points at or above from_threads";
    let errors = List.map snd per_point in
    let max_error = List.fold_left Float.max 0.0 errors in
    let mean_error = List.fold_left ( +. ) 0.0 errors /. float_of_int (List.length errors) in
    let predicted_verdict = scaling_verdict ~times:predicted ~grid:target_grid () in
    let measured_verdict = scaling_verdict ~times:measured ~grid:target_grid () in
    {
      max_error;
      mean_error;
      per_point;
      predicted_verdict;
      measured_verdict;
      verdict_agrees = agreement ~predicted:predicted_verdict ~measured:measured_verdict;
    }
end
