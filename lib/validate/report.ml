module Json = Estima_json.Json
module Quality = Estima.Diag.Quality
module Stats = Estima_numerics.Stats

type protocol = {
  machine : string;
  sockets : int option;
  target : string;
  window : int;
  target_max : int;
  seed : int;
  repetitions : int;
  include_software : bool;
}

type errors = { max_error : float; mean_error : float; std_error : float }

type t = {
  workload : string;
  family : string;
  protocol : protocol;
  errors : errors;
  per_point : (int * float) list;
  predicted_verdict : Quality.verdict;
  measured_verdict : Quality.verdict;
  verdict_agrees : bool;
  stop_delta : int option;
}

type confusion = {
  scales_scales : int;
  scales_stops : int;
  stops_scales : int;
  stops_stops : int;
}

type summary = {
  workloads : string list;
  avg_max_error : float;
  std_max_error : float;
  worst_error : float;
  worst_workload : string;
  confusion : confusion;
  invariant_ok : bool;
}

let verdict_to_json_string = function
  | Quality.Scales -> "scales"
  | Quality.Stops_at k -> Printf.sprintf "stops@%d" k

let summarize reports =
  if reports = [] then invalid_arg "Report.summarize: empty corpus";
  let maxes = Array.of_list (List.map (fun r -> r.errors.max_error) reports) in
  let worst_i = Stats.argmax maxes in
  let worst = List.nth reports worst_i in
  let count pred = List.length (List.filter pred reports) in
  let is_scales = function Quality.Scales -> true | Quality.Stops_at _ -> false in
  let confusion =
    {
      scales_scales =
        count (fun r -> is_scales r.predicted_verdict && is_scales r.measured_verdict);
      scales_stops =
        count (fun r -> is_scales r.predicted_verdict && not (is_scales r.measured_verdict));
      stops_scales =
        count (fun r -> (not (is_scales r.predicted_verdict)) && is_scales r.measured_verdict);
      stops_stops =
        count (fun r ->
            (not (is_scales r.predicted_verdict)) && not (is_scales r.measured_verdict));
    }
  in
  {
    workloads = List.map (fun r -> r.workload) reports;
    avg_max_error = Stats.mean maxes;
    std_max_error = Stats.std_dev maxes;
    worst_error = maxes.(worst_i);
    worst_workload = worst.workload;
    confusion;
    invariant_ok = confusion.scales_stops = 0;
  }

(* --- JSON --- *)

let schema_version = 1

let json_of_option f = function None -> Json.Null | Some v -> f v

let protocol_to_json (p : protocol) =
  Json.Obj
    [
      ("machine", Json.String p.machine);
      ("sockets", json_of_option (fun s -> Json.Int s) p.sockets);
      ("target", Json.String p.target);
      ("window", Json.Int p.window);
      ("target_max", Json.Int p.target_max);
      ("seed", Json.Int p.seed);
      ("repetitions", Json.Int p.repetitions);
      ("include_software", Json.Bool p.include_software);
    ]

let errors_to_json (e : errors) =
  Json.Obj
    [
      ("max", Json.Float e.max_error);
      ("mean", Json.Float e.mean_error);
      ("std", Json.Float e.std_error);
    ]

let to_json (r : t) =
  Json.Obj
    [
      ("schema", Json.Int schema_version);
      ("workload", Json.String r.workload);
      ("family", Json.String r.family);
      ("protocol", protocol_to_json r.protocol);
      ("errors", errors_to_json r.errors);
      ( "per_point",
        Json.List
          (List.map
             (fun (threads, err) ->
               Json.Obj [ ("threads", Json.Int threads); ("error", Json.Float err) ])
             r.per_point) );
      ("predicted_verdict", Json.String (verdict_to_json_string r.predicted_verdict));
      ("measured_verdict", Json.String (verdict_to_json_string r.measured_verdict));
      ("verdict_agrees", Json.Bool r.verdict_agrees);
      ("stop_delta", json_of_option (fun d -> Json.Int d) r.stop_delta);
    ]

let confusion_to_json (c : confusion) =
  Json.Obj
    [
      ("scales_scales", Json.Int c.scales_scales);
      ("scales_stops", Json.Int c.scales_stops);
      ("stops_scales", Json.Int c.stops_scales);
      ("stops_stops", Json.Int c.stops_stops);
    ]

let summary_to_json (s : summary) =
  Json.Obj
    [
      ("schema", Json.Int schema_version);
      ("workloads", Json.List (List.map (fun w -> Json.String w) s.workloads));
      ( "errors",
        Json.Obj
          [
            ("avg_max", Json.Float s.avg_max_error);
            ("std_max", Json.Float s.std_max_error);
            ("worst", Json.Float s.worst_error);
          ] );
      ("worst_workload", Json.String s.worst_workload);
      ("confusion", confusion_to_json s.confusion);
      ("invariant_ok", Json.Bool s.invariant_ok);
    ]

(* --- text rendering --- *)

let pct f = 100.0 *. f

let table reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-16s %9s %9s %9s  %-10s %-10s %s\n" "workload" "max-err"
       "mean-err" "std-err" "predicted" "measured" "stop-delta");
  List.iter
    (fun r ->
      let delta = match r.stop_delta with None -> "-" | Some d -> Printf.sprintf "%+d" d in
      Buffer.add_string buf
        (Printf.sprintf "%-16s %8.1f%% %8.1f%% %8.1f%%  %-10s %-10s %s\n" r.workload
           (pct r.errors.max_error) (pct r.errors.mean_error) (pct r.errors.std_error)
           (verdict_to_json_string r.predicted_verdict)
           (verdict_to_json_string r.measured_verdict)
           delta))
    reports;
  Buffer.contents buf

let summary_lines s =
  let c = s.confusion in
  String.concat "\n"
    [
      Printf.sprintf "workloads: %d" (List.length s.workloads);
      Printf.sprintf "avg max error: %.1f%%   std: %.1f%%" (pct s.avg_max_error)
        (pct s.std_max_error);
      Printf.sprintf "worst: %s at %.1f%%" s.worst_workload (pct s.worst_error);
      Printf.sprintf "confusion (predicted x measured): scales/scales=%d scales/stops=%d stops/scales=%d stops/stops=%d"
        c.scales_scales c.scales_stops c.stops_scales c.stops_stops;
      Printf.sprintf "scaling-claim invariant (no predicted-scales/measured-stops): %s"
        (if s.invariant_ok then "ok" else "VIOLATED");
    ]
  ^ "\n"
