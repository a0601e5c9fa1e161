module Json = Estima_json.Json

(* ------------------------------- text ------------------------------- *)

let verdict_to_string = function
  | Trace.Accepted -> "accepted"
  | Trace.Rejected gate -> "rejected:" ^ Trace.gate_to_string gate

let score_to_string s = if Float.is_finite s then Printf.sprintf "%.4g" s else "-"

let pp_candidate ppf (c : Audit.candidate) =
  Format.fprintf ppf "%-12s prefix=%-2d %-20s score=%-10s %s" c.Audit.kernel c.Audit.prefix
    (verdict_to_string c.Audit.verdict)
    (score_to_string c.Audit.score)
    c.Audit.detail

let pp_record ppf (r : Audit.record) =
  Format.fprintf ppf "@[<v>[%s] %s@," r.Audit.stage r.Audit.subject;
  (match r.Audit.winner with
  | Some w ->
      Format.fprintf ppf "  winner: %s (prefix %d, score %s%s)@," w.Audit.kernel w.Audit.prefix
        (score_to_string w.Audit.score)
        (if Float.is_finite w.Audit.correlation then
           Printf.sprintf ", correlation %.4f" w.Audit.correlation
         else "")
  | None -> Format.fprintf ppf "  winner: (none)@,");
  List.iter (fun n -> Format.fprintf ppf "  note: %s@," n) r.Audit.notes;
  List.iter (fun c -> Format.fprintf ppf "  %a@," pp_candidate c) r.Audit.candidates;
  List.iter
    (fun (d : Audit.decision) ->
      Format.fprintf ppf "  decision: %s vs %s -> %s by %s (%s)@," d.Audit.incumbent
        d.Audit.challenger d.Audit.winner d.Audit.rule d.Audit.detail)
    r.Audit.decisions;
  Format.fprintf ppf "@]"

(* Per-subject detail: the winner line followed by every candidate with
   its verdict (and rejection gate), score and explanation. *)
let pp_audit ppf audit =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i r ->
      if i > 0 then Format.fprintf ppf "@,";
      pp_record ppf r)
    audit;
  Format.fprintf ppf "@]"

let pp_span_stats ppf stats =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (s : Recorder.span_stat) ->
      Format.fprintf ppf "%-40s %6d call%s %12.3f ms@,"
        (String.concat "/" s.Recorder.path)
        s.Recorder.count
        (if s.Recorder.count = 1 then " " else "s")
        (Int64.to_float s.Recorder.total_ns /. 1e6))
    stats;
  Format.fprintf ppf "@]"

let pp_counters ppf counters =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (name, v) -> Format.fprintf ppf "%-40s %d@," name v) counters;
  Format.fprintf ppf "@]"

let pp_recorder ppf recorder =
  let audit = Audit.of_events (Recorder.events recorder) in
  Format.fprintf ppf "@[<v>== fit-selection audit ==@,%a@," pp_audit audit;
  (match Recorder.span_stats recorder with
  | [] -> ()
  | stats -> Format.fprintf ppf "@,== span timings ==@,%a@," pp_span_stats stats);
  match Recorder.counters recorder with
  | [] -> Format.fprintf ppf "@]"
  | counters -> Format.fprintf ppf "@,== counters ==@,%a@]" pp_counters counters

(* ------------------------------- JSON ------------------------------- *)

(* A candidate, a winner and a decision print the same members in a
   trace event and in its audit record. *)
let candidate_members ~kernel ~prefix ~verdict ~score ~detail =
  Json.
    [
      ("kernel", String kernel);
      ("prefix", Int prefix);
      ( "verdict",
        String (match verdict with Trace.Accepted -> "accepted" | Trace.Rejected _ -> "rejected") );
      ( "gate",
        match verdict with
        | Trace.Accepted -> Null
        | Trace.Rejected gate -> String (Trace.gate_to_string gate) );
      ("score", Float score);
      ("detail", String detail);
    ]

let winner_members ~kernel ~prefix ~score ~correlation =
  Json.
    [
      ("kernel", String kernel);
      ("prefix", Int prefix);
      ("score", Float score);
      ("correlation", Float correlation);
    ]

let decision_members ~incumbent ~challenger ~winner ~rule ~detail =
  Json.
    [
      ("incumbent", String incumbent);
      ("challenger", String challenger);
      ("winner", String winner);
      ("rule", String rule);
      ("detail", String detail);
    ]

let strings xs = Json.List (List.map (fun s -> Json.String s) xs)

let json_payload (p : Trace.payload) =
  let open Json in
  let typed name members = Obj (("type", String name) :: members) in
  (* Every payload but a fit attempt names its stage and subject first. *)
  let staged name ~stage ~subject members =
    typed name (("stage", String stage) :: ("subject", String subject) :: members)
  in
  match p with
  | Trace.Fit_attempt { kernel; points; status } ->
      typed "fit_attempt"
        ([ ("kernel", String kernel); ("points", Int points) ]
        @
        match status with
        | Trace.Fitted { rmse; lm_converged } ->
            [
              ("status", String "fitted");
              ("rmse", Float rmse);
              ("lm_converged", Bool lm_converged);
            ]
        | Trace.Not_applicable -> [ ("status", String "not-applicable") ]
        | Trace.No_guesses -> [ ("status", String "no-guesses") ]
        | Trace.Diverged -> [ ("status", String "diverged") ])
  | Trace.Candidate { stage; subject; kernel; prefix; verdict; score; detail } ->
      staged "candidate" ~stage ~subject
        (candidate_members ~kernel ~prefix ~verdict ~score ~detail)
  | Trace.Decision { stage; subject; incumbent; challenger; winner; rule; detail } ->
      staged "decision" ~stage ~subject
        (decision_members ~incumbent ~challenger ~winner ~rule ~detail)
  | Trace.Winner { stage; subject; kernel; prefix; score; correlation } ->
      staged "winner" ~stage ~subject (winner_members ~kernel ~prefix ~score ~correlation)
  | Trace.Note { stage; subject; text } -> staged "note" ~stage ~subject [ ("text", String text) ]
  | Trace.Diagnostic { stage; subject; cause; detail } ->
      staged "diagnostic" ~stage ~subject [ ("cause", String cause); ("detail", String detail) ]

(* Clock readings are nanoseconds from a process-relative origin, well
   inside a native int. *)
let json_event (e : Trace.event) =
  Json.Obj
    [
      ("seq", Json.Int e.Trace.seq);
      ("at_ns", Json.Int (Int64.to_int e.Trace.at_ns));
      ("span", strings e.Trace.span);
      ("payload", json_payload e.Trace.payload);
    ]

let json_record (r : Audit.record) =
  let open Json in
  Obj
    [
      ("stage", String r.Audit.stage);
      ("subject", String r.Audit.subject);
      ( "winner",
        match r.Audit.winner with
        | None -> Null
        | Some { kernel; prefix; score; correlation } ->
            Obj (winner_members ~kernel ~prefix ~score ~correlation) );
      ( "candidates",
        List
          (List.map
             (fun ({ kernel; prefix; verdict; score; detail } : Audit.candidate) ->
               Obj (candidate_members ~kernel ~prefix ~verdict ~score ~detail))
             r.Audit.candidates) );
      ( "decisions",
        List
          (List.map
             (fun ({ incumbent; challenger; winner; rule; detail } : Audit.decision) ->
               Obj (decision_members ~incumbent ~challenger ~winner ~rule ~detail))
             r.Audit.decisions) );
      ("notes", strings r.Audit.notes);
    ]

let json_of_recorder recorder =
  let events = Recorder.events recorder in
  let open Json in
  to_string
    (Obj
       [
         ("events", List (List.map json_event events));
         ("audit", List (List.map json_record (Audit.of_events events)));
         ( "spans",
           List
             (List.map
                (fun (s : Recorder.span_stat) ->
                  Obj
                    [
                      ("path", strings s.Recorder.path);
                      ("count", Int s.Recorder.count);
                      ("total_ns", Int (Int64.to_int s.Recorder.total_ns));
                    ])
                (Recorder.span_stats recorder)) );
         ("counters", Obj (List.map (fun (name, v) -> (name, Int v)) (Recorder.counters recorder)));
       ])
  ^ "\n"
