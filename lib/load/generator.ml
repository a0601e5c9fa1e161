module Api = Estima.Api
module Rng = Estima_numerics.Rng
module Topology = Estima_machine.Topology
module Json = Estima_json.Json
module Protocol = Estima_service.Protocol
module Server = Estima_service.Server

type payload = { spec_name : string; csv : string }

let suite_payloads ?(seed = 42) ?(repetitions = 3) ?(max_threads = 12) ~machine names =
  List.map
    (fun name ->
      match Estima_workloads.Suite.find name with
      | None -> invalid_arg (Printf.sprintf "Generator.suite_payloads: unknown workload %S" name)
      | Some entry ->
          let series =
            Api.collect ~seed ~repetitions ~plugins:entry.Estima_workloads.Suite.plugins ~machine
              ~spec:entry.Estima_workloads.Suite.spec ~max_threads ()
          in
          { spec_name = name; csv = Estima_counters.Csv_export.series_to_csv series })
    names

type kind = Predict_v1 | Predict_v2 | Workload | Confidence | Malformed

let kind_label = function
  | Predict_v1 -> "predict_v1"
  | Predict_v2 -> "predict_v2"
  | Workload -> "workload"
  | Confidence -> "confidence"
  | Malformed -> "malformed"

type request = { id : int; kind : kind; line : string; expected : string }

type mix = { v1 : int; v2 : int; workload : int; confidence : int; malformed : int }

let default_mix = { v1 = 5; v2 = 3; workload = 1; confidence = 0; malformed = 1 }

type plan = {
  seed : int;
  mix : mix;
  payloads : payload list;
  streams : request array array;
}

(* ------------------------------------------------------------------ *)
(* Expected-response computation                                       *)
(* ------------------------------------------------------------------ *)

type expectations = {
  machine : Topology.t;
  base : Estima.Config.t;
  target_max : int;
  confidence_resamples : int;
  memo : (string, Protocol.answer) Hashtbl.t;
}

(* The answer for one distinct request, from the series [series_of]
   yields, through the server's own Server.answer — memoised under
   [what], so a 10 000-request plan runs each unique pipeline once. *)
let expected_answer ex ~what ~confidence series_of =
  match Hashtbl.find_opt ex.memo what with
  | Some answer -> answer
  | None -> (
      match
        Result.bind (series_of ()) (fun series ->
            Server.answer ~base:ex.base ~series ~target_max:ex.target_max ~confidence)
      with
      | Ok answer ->
          Hashtbl.replace ex.memo what answer;
          answer
      | Error d ->
          invalid_arg (Printf.sprintf "Generator.plan: %s: %s" what (Estima.Diag.render d)))

let csv_answer ex (payload : payload) ~confidence =
  let what =
    Printf.sprintf "payload %S%s" payload.spec_name
      (match confidence with None -> "" | Some n -> Printf.sprintf " at %d resamples" n)
  in
  expected_answer ex ~what ~confidence (fun () ->
      Api.series_of_csv ~file:"<wire>" ~spec_name:payload.spec_name ~machine:ex.machine
        payload.csv)

let workload_answer ex name =
  expected_answer ex ~what:(Printf.sprintf "workload %S" name) ~confidence:None (fun () ->
      Server.collect_workload ~machine:ex.machine name)

(* ------------------------------------------------------------------ *)
(* Frame construction                                                  *)
(* ------------------------------------------------------------------ *)

let predict_line ~id ?v ?spec ?csv ?workload ?confidence () =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Int id) ]
       @ (match v with None -> [] | Some v -> [ ("v", Json.Int v) ])
       @ [ ("op", Json.String "predict") ]
       @ (match workload with None -> [] | Some w -> [ ("workload", Json.String w) ])
       @ (match csv with None -> [] | Some c -> [ ("csv", Json.String c) ])
       @ (match spec with None -> [] | Some s -> [ ("spec", Json.String s) ])
       @ match confidence with None -> [] | Some n -> [ ("confidence", Json.Int n) ]))

(* Malformed frames: junk a client could plausibly emit.  Newlines are
   excluded (a frame is one line by definition; '\r' only because the
   transport strips it, which would make the frame we account for differ
   from the frame on the wire). *)
let junk_char rng ~printable =
  let rec pick () =
    let c = if printable then Char.chr (32 + Rng.int rng 95) else Char.chr (Rng.int rng 256) in
    if c = '\n' || c = '\r' then pick () else c
  in
  pick ()

let malformed_line rng ~id ~sample_line =
  let candidate =
    match Rng.int rng 7 with
    | 0 ->
        (* Random printable junk. *)
        String.init (1 + Rng.int rng 40) (fun _ -> junk_char rng ~printable:true)
    | 1 ->
        (* A strict prefix of a valid request: every prefix is missing
           at least the closing brace, so it can never parse. *)
        let n = String.length sample_line in
        String.sub sample_line 0 (1 + Rng.int rng (n - 1))
    | 2 ->
        (* Raw bytes: NULs, truncated UTF-8, whatever — the transport
           must answer with a typed error, never crash. *)
        String.init (1 + Rng.int rng 24) (fun _ -> junk_char rng ~printable:false)
    | 3 ->
        (* Numeric overflow in the id. *)
        Printf.sprintf "{\"id\":9%d999999999999999999999999,\"op\":\"predict\"}" (Rng.int rng 10)
    | 4 -> Printf.sprintf "{\"id\":%d,\"op\":\"sing\"}" id
    | 5 ->
        (* Unsupported protocol version: typed bad-config, not a parse
           error. *)
        Printf.sprintf "{\"id\":%d,\"v\":%d,\"op\":\"predict\",\"csv\":\"x\"}" id
          (3 + Rng.int rng 97)
    | _ ->
        (* A v2-only member on a v1 request. *)
        Printf.sprintf "{\"id\":%d,\"op\":\"predict\",\"csv\":\"x\",\"confidence\":10}" id
  in
  (* The frame must be rejected, or it would reach the pipeline and the
     accounting below would lie; the guard keeps generation honest even
     if a random template accidentally spells a valid request. *)
  match Protocol.parse_request candidate with
  | Error _ -> candidate
  | Ok _ -> Printf.sprintf "{\"id\":%d,\"op\":\"sing\"}" id

let expected_error line =
  match Protocol.parse_request line with
  | Error (id, diag) -> Protocol.error_response ~id ~v:1 diag
  | Ok _ -> assert false

(* ------------------------------------------------------------------ *)
(* The plan                                                            *)
(* ------------------------------------------------------------------ *)

let default_payload_names = [ "kmeans"; "genome"; "intruder"; "ssca2" ]

let plan ?(mix = default_mix) ?(confidence_resamples = 25) ?(workloads = [ "kmeans" ])
    ?payloads ~machine ~target ~base ~seed ~clients ~requests_per_client () =
  if clients < 1 then invalid_arg "Generator.plan: clients < 1";
  if requests_per_client < 1 then invalid_arg "Generator.plan: requests_per_client < 1";
  if mix.v1 < 0 || mix.v2 < 0 || mix.workload < 0 || mix.confidence < 0 || mix.malformed < 0
  then invalid_arg "Generator.plan: negative mix weight";
  let payloads =
    match payloads with
    | Some payloads -> payloads
    | None -> suite_payloads ~machine default_payload_names
  in
  let csv_weight = mix.v1 + mix.v2 + mix.confidence in
  if csv_weight > 0 && payloads = [] then
    invalid_arg "Generator.plan: CSV request kinds need at least one payload";
  let workload_weight = if workloads = [] then 0 else mix.workload in
  let total_weight = csv_weight + workload_weight + mix.malformed in
  if total_weight = 0 then invalid_arg "Generator.plan: all mix weights are zero";
  let ex =
    {
      machine;
      base;
      target_max = Topology.cores target;
      confidence_resamples;
      memo = Hashtbl.create 16;
    }
  in
  let payload_array = Array.of_list payloads in
  let workload_array = Array.of_list workloads in
  let pick_kind rng =
    let roll = Rng.int rng total_weight in
    if roll < mix.v1 then Predict_v1
    else if roll < mix.v1 + mix.v2 then Predict_v2
    else if roll < csv_weight then Confidence
    else if roll < csv_weight + workload_weight then Workload
    else Malformed
  in
  (* A sample well-formed line for the truncation template: built from a
     real payload when there is one, a synthetic predict otherwise. *)
  let sample_line =
    if Array.length payload_array > 0 then
      predict_line ~id:0 ~spec:payload_array.(0).spec_name ~csv:payload_array.(0).csv ()
    else predict_line ~id:0 ~workload:"kmeans" ()
  in
  let root = Rng.create seed in
  let streams =
    Array.init clients (fun client ->
        (* One independent stream per client, split off in client order:
           the bytes of client i do not depend on how many requests the
           other clients make. *)
        let rng = Rng.split root in
        Array.init requests_per_client (fun i ->
            let id = (client * requests_per_client) + i + 1 in
            let kind = pick_kind rng in
            match kind with
            | Predict_v1 | Predict_v2 ->
                let payload = payload_array.(Rng.int rng (Array.length payload_array)) in
                let v = if kind = Predict_v2 then Some 2 else None in
                let line = predict_line ~id ?v ~spec:payload.spec_name ~csv:payload.csv () in
                let expected =
                  Protocol.answer_response ~id:(Json.Int id) ~v:(Option.value ~default:1 v)
                    (csv_answer ex payload ~confidence:None)
                in
                { id; kind; line; expected }
            | Confidence ->
                (* Confidence is a full refit per resample: always the
                   first payload, so the plan computes one band set, not
                   one per payload. *)
                let payload = payload_array.(0) in
                let line =
                  predict_line ~id ~v:2 ~spec:payload.spec_name ~csv:payload.csv
                    ~confidence:ex.confidence_resamples ()
                in
                let expected =
                  Protocol.answer_response ~id:(Json.Int id) ~v:2
                    (csv_answer ex payload ~confidence:(Some ex.confidence_resamples))
                in
                { id; kind; line; expected }
            | Workload ->
                let name = workload_array.(Rng.int rng (Array.length workload_array)) in
                let line = predict_line ~id ~workload:name () in
                let expected =
                  Protocol.answer_response ~id:(Json.Int id) ~v:1 (workload_answer ex name)
                in
                { id; kind; line; expected }
            | Malformed ->
                let line = malformed_line rng ~id ~sample_line in
                { id; kind; line; expected = expected_error line }))
  in
  { seed; mix; payloads; streams }

let stream_bytes plan =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun stream ->
      Array.iter
        (fun r ->
          Buffer.add_string buf r.line;
          Buffer.add_char buf '\n')
        stream)
    plan.streams;
  Buffer.contents buf

let total_requests plan = Array.fold_left (fun acc s -> acc + Array.length s) 0 plan.streams

let count_kind plan kind =
  Array.fold_left
    (fun acc stream ->
      Array.fold_left (fun acc r -> if r.kind = kind then acc + 1 else acc) acc stream)
    0 plan.streams
