module Diag = Estima.Diag

let version = 2

type request =
  | Predict of {
      id : Json.t;
      v : int;
      file : string option;
      csv : string option;
      workload : string option;
      spec_name : string option;
      target_max : int option;
      timeout_ms : int option;
      confidence : int option;
    }
  | Metrics of { id : Json.t; v : int }
  | Shutdown of { id : Json.t; v : int }

let bad_request id msg =
  Error (id, Diag.make ~stage:Diag.Serve ~subject:"request" (Diag.Parse_error { file = "<wire>"; line = 0; msg }))

(* Version troubles are not parse errors: the line was well-formed JSON,
   the client just speaks a dialect this server does not.  A typed
   Bad_config tells it exactly that (exit code 2 on the wire). *)
let bad_version id what =
  Error (id, Diag.make ~stage:Diag.Serve ~subject:"request" (Diag.Bad_config { what }))

let member_string json key = Json.member_opt ~what:"a string" Json.to_string_opt key json

let member_int json key = Json.member_opt ~what:"an integer" Json.to_int_opt key json

let parse_request line =
  match Json.parse line with
  | Error msg -> bad_request Json.Null msg
  | Ok json -> (
      let id = Option.value ~default:Json.Null (Json.member "id" json) in
      let ( let* ) r f = match r with Ok v -> f v | Error msg -> bad_request id msg in
      let* v = member_int json "v" in
      match v with
      | Some v when v < 1 || v > version ->
          bad_version id
            (Printf.sprintf "unsupported protocol version %d (this server speaks 1..%d)" v
               version)
      | _ -> (
          (* A missing "v" means version 1 semantics: the pre-versioning
             wire format, byte-unaffected by everything v2 added. *)
          let v = Option.value ~default:1 v in
          let* op = member_string json "op" in
          match op with
          | None -> bad_request id "missing \"op\""
          | Some "metrics" -> Ok (Metrics { id; v })
          | Some "shutdown" -> Ok (Shutdown { id; v })
          | Some "predict" ->
              let* file = member_string json "file" in
              let* csv = member_string json "csv" in
              let* workload = member_string json "workload" in
              let* spec_name = member_string json "spec" in
              let* target_max = member_int json "target_max" in
              let* timeout_ms = member_int json "timeout_ms" in
              let* confidence = member_int json "confidence" in
              if confidence <> None && v < 2 then
                bad_version id "\"confidence\" requires protocol version 2 (send \"v\":2)"
              else if file = None && csv = None && workload = None then
                bad_request id "predict needs \"file\", \"csv\" or \"workload\""
              else
                Ok
                  (Predict
                     { id; v; file; csv; workload; spec_name; target_max; timeout_ms; confidence })
          | Some op -> bad_request id (Printf.sprintf "unknown op %S" op)))

(* Responses open with the envelope ("id", ...) and — from v2 on —
   ("v", ...): a v1 request (or an unparseable line, which has no
   version) gets exactly the bytes the unversioned protocol produced.
   The members after the envelope are rendered on their own, as one
   object, and spliced on after its opening brace, so a cached answer is
   rendered once for every request it serves; the bytes are those of
   one [Json.Obj] holding the envelope and the members. *)
let splice ~id ~v members =
  let version = if v >= 2 then ",\"v\":" ^ string_of_int v else "" in
  let head = String.concat "" [ "{\"id\":"; Json.to_string id; version; "," ] in
  let n = String.length head in
  let response = Bytes.create (n + String.length members - 1) in
  Bytes.blit_string head 0 response 0 n;
  Bytes.blit_string members 1 response n (String.length members - 1);
  Bytes.unsafe_to_string response

(* [members] is never empty. *)
let respond ~id ~v members = splice ~id ~v (Json.to_string (Json.Obj members))

type confidence = {
  level : float;
  resamples : int;
  succeeded : int;
  seed : int;
  scaling_fraction : float;
  verdict : string;
  stop_lo : int option;
  stop_hi : int option;
  p_lo : float list;
  p50 : float list;
  p_hi : float list;
  header : string;
  rows : string list;
  verdict_line : string;
}

type answer = {
  summary : string;
  rows : string list;
  verdict : string;
  confidence : confidence option;
}

let confidence_of_api prediction (c : Estima.Api.Confidence.t) =
  let module C = Estima.Api.Confidence in
  let bands f = Array.to_list (Array.map f c.C.bands) in
  {
    level = c.C.level;
    resamples = c.C.resamples;
    succeeded = c.C.succeeded;
    seed = c.C.seed;
    scaling_fraction = c.C.scaling_fraction;
    verdict =
      (match c.C.verdict with
      | C.Scales -> "scales"
      | C.Stops_at _ -> "stops"
      | C.Uncertain -> "uncertain");
    stop_lo = Option.map fst c.C.stop_interval;
    stop_hi = Option.map snd c.C.stop_interval;
    p_lo = bands (fun b -> b.C.lo);
    p50 = bands (fun b -> b.C.median);
    p_hi = bands (fun b -> b.C.hi);
    header = Estima.Api.confidence_rows_header c;
    rows = Estima.Api.render_confidence_rows prediction c;
    verdict_line = Estima.Api.render_confidence_verdict c;
  }

let answer prediction confidence =
  {
    summary = Estima.Api.render_summary prediction;
    rows = Estima.Api.render_rows prediction;
    verdict = Estima.Api.render_verdict prediction;
    confidence = Option.map (confidence_of_api prediction) confidence;
  }

let confidence_member (c : confidence) =
  let opt_int = function None -> Json.Null | Some n -> Json.Int n in
  let floats xs = Json.List (List.map (fun x -> Json.Float x) xs) in
  ( "confidence",
    Json.Obj
      [
        ("level", Json.Float c.level);
        ("resamples", Json.Int c.resamples);
        ("succeeded", Json.Int c.succeeded);
        ("seed", Json.Int c.seed);
        ("scaling_fraction", Json.Float c.scaling_fraction);
        ("verdict", Json.String c.verdict);
        ("stop_lo", opt_int c.stop_lo);
        ("stop_hi", opt_int c.stop_hi);
        ("p_lo", floats c.p_lo);
        ("p50", floats c.p50);
        ("p_hi", floats c.p_hi);
        ("header", Json.String c.header);
        ("rows", Json.List (List.map (fun r -> Json.String r) c.rows));
        ("verdict_line", Json.String c.verdict_line);
      ] )

let predict_members ~confidence ~summary ~header ~rows ~verdict =
  [
    ("ok", Json.Bool true);
    ("summary", Json.String summary);
    ("header", Json.String header);
    ("rows", Json.List (List.map (fun r -> Json.String r) rows));
    ("verdict", Json.String verdict);
  ]
  @ match confidence with None -> [] | Some c -> [ confidence_member c ]

let predict_response ~id ~v ~confidence ~summary ~header ~rows ~verdict =
  respond ~id ~v (predict_members ~confidence ~summary ~header ~rows ~verdict)

type rendered = string

let render (a : answer) =
  Json.to_string
    (Json.Obj
       (predict_members ~confidence:a.confidence ~summary:a.summary ~header:Estima.Api.rows_header
          ~rows:a.rows ~verdict:a.verdict))

let rendered_response = splice

let answer_response ~id ~v a = splice ~id ~v (render a)

let metrics_response ~id ~v ~dump =
  respond ~id ~v [ ("ok", Json.Bool true); ("metrics", Json.String dump) ]

let shutdown_response ~v ~id = respond ~id ~v [ ("ok", Json.Bool true); ("bye", Json.Bool true) ]

let error_response ~id ~v (diag : Diag.t) =
  respond ~id ~v
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [
            ("stage", Json.String (Diag.stage_label diag.Diag.stage));
            ("subject", Json.String diag.Diag.subject);
            ("cause", Json.String (Diag.cause_label diag.Diag.cause));
            ("message", Json.String (Diag.render diag));
            ("exit_code", Json.Int (Diag.exit_code diag));
          ] );
    ]
