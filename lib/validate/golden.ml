module Json = Estima_json.Json

let default_epsilon = 0.01

let workload_file ~dir name = Filename.concat dir (name ^ ".json")

let summary_file ~dir = Filename.concat dir "summary.json"

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let bless ~dir reports summary =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let paths =
    List.map
      (fun (r : Report.t) ->
        let path = workload_file ~dir r.Report.workload in
        write_file path (Json.pretty (Report.to_json r));
        path)
      reports
  in
  let spath = summary_file ~dir in
  write_file spath (Json.pretty (Report.summary_to_json summary));
  paths @ [ spath ]

let load_report path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "missing golden file %s (bless it with estima_cli validate --bless)" path)
  else
    match Json.parse (read_file path) with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok json -> (
        match Report.of_json json with
        | Ok r -> Ok r
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let load_summary path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "missing golden file %s (bless it with estima_cli validate --bless)" path)
  else
    match Json.parse (read_file path) with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok json -> (
        match Report.summary_of_json json with
        | Ok s -> Ok s
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

(* --- comparison --- *)

let close ~epsilon a b = Float.abs (a -. b) <= epsilon

let exact what render golden fresh =
  if golden = fresh then []
  else [ Printf.sprintf "%s: golden %s, got %s" what (render golden) (render fresh) ]

let within ~epsilon what golden fresh =
  if close ~epsilon golden fresh then []
  else
    [
      Printf.sprintf "%s: golden %.17g, got %.17g (|delta| %.3g > epsilon %.3g)" what golden
        fresh
        (Float.abs (golden -. fresh))
        epsilon;
    ]

let str s = Printf.sprintf "%S" s

let opt_int = function None -> "null" | Some i -> string_of_int i

let compare_protocol (g : Report.protocol) (f : Report.protocol) =
  exact "protocol.machine" str g.Report.machine f.Report.machine
  @ exact "protocol.sockets" opt_int g.Report.sockets f.Report.sockets
  @ exact "protocol.target" str g.Report.target f.Report.target
  @ exact "protocol.window" string_of_int g.Report.window f.Report.window
  @ exact "protocol.target_max" string_of_int g.Report.target_max f.Report.target_max
  @ exact "protocol.seed" string_of_int g.Report.seed f.Report.seed
  @ exact "protocol.repetitions" string_of_int g.Report.repetitions f.Report.repetitions
  @ exact "protocol.include_software" string_of_bool g.Report.include_software
      f.Report.include_software

let compare_report ?(epsilon = default_epsilon) ~golden fresh =
  let g = golden and f = fresh in
  exact "workload" str g.Report.workload f.Report.workload
  @ exact "family" str g.Report.family f.Report.family
  @ compare_protocol g.Report.protocol f.Report.protocol
  @ within ~epsilon "errors.max" g.Report.errors.Report.max_error f.Report.errors.Report.max_error
  @ within ~epsilon "errors.mean" g.Report.errors.Report.mean_error
      f.Report.errors.Report.mean_error
  @ within ~epsilon "errors.std" g.Report.errors.Report.std_error f.Report.errors.Report.std_error
  @ exact "predicted_verdict" Report.verdict_to_json_string g.Report.predicted_verdict
      f.Report.predicted_verdict
  @ exact "measured_verdict" Report.verdict_to_json_string g.Report.measured_verdict
      f.Report.measured_verdict
  @ exact "verdict_agrees" string_of_bool g.Report.verdict_agrees f.Report.verdict_agrees
  @ exact "stop_delta" opt_int g.Report.stop_delta f.Report.stop_delta

let compare_summary ?(epsilon = default_epsilon) ~golden fresh =
  let g = golden and f = fresh in
  let gc = g.Report.confusion and fc = f.Report.confusion in
  exact "workloads"
    (fun ws -> String.concat "," ws)
    g.Report.workloads f.Report.workloads
  @ within ~epsilon "errors.avg_max" g.Report.avg_max_error f.Report.avg_max_error
  @ within ~epsilon "errors.std_max" g.Report.std_max_error f.Report.std_max_error
  @ within ~epsilon "errors.worst" g.Report.worst_error f.Report.worst_error
  @ exact "worst_workload" str g.Report.worst_workload f.Report.worst_workload
  @ exact "confusion.scales_scales" string_of_int gc.Report.scales_scales fc.Report.scales_scales
  @ exact "confusion.scales_stops" string_of_int gc.Report.scales_stops fc.Report.scales_stops
  @ exact "confusion.stops_scales" string_of_int gc.Report.stops_scales fc.Report.stops_scales
  @ exact "confusion.stops_stops" string_of_int gc.Report.stops_stops fc.Report.stops_stops
  @ exact "invariant_ok" string_of_bool g.Report.invariant_ok f.Report.invariant_ok

let prefixed prefix lines = List.map (fun l -> prefix ^ ": " ^ l) lines

let compare_run ?(epsilon = default_epsilon) ~dir reports summary =
  let per_workload =
    List.concat_map
      (fun (fresh : Report.t) ->
        let name = fresh.Report.workload in
        match load_report (workload_file ~dir name) with
        | Error msg -> [ name ^ ": " ^ msg ]
        | Ok golden -> prefixed name (compare_report ~epsilon ~golden fresh))
      reports
  in
  let summary_mismatches =
    match summary with
    | None -> []
    | Some fresh -> (
        match load_summary (summary_file ~dir) with
        | Error msg -> [ "summary: " ^ msg ]
        | Ok golden -> prefixed "summary" (compare_summary ~epsilon ~golden fresh))
  in
  per_workload @ summary_mismatches
