module Json = Estima_json.Json

(* One percentage point of relative error. *)
let epsilon = 0.01

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

let load path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "missing golden file %s (bless it with estima_cli validate --bless)" path)
  else Result.map_error (Printf.sprintf "%s: %s" path) (Json.parse (read_file path))

(* --- comparison --- *)

let line path detail = if path = "" then detail else path ^ ": " ^ detail

let differs path golden fresh =
  let render = function None -> "missing" | Some v -> Json.to_string v in
  [ line path (Printf.sprintf "golden %s, got %s" (render golden) (render fresh)) ]

(* An integer is discrete (a window, a stop delta); a number with a float
   on either side is a measured statistic, and its line says how far it
   drifted. *)
let measured = function Json.Float _ -> true | _ -> false

let rec walk path golden fresh =
  match (golden, fresh) with
  | Json.Obj g, Json.Obj f ->
      let fresh_only = List.filter (fun (key, _) -> not (List.mem_assoc key g)) f in
      List.concat_map
        (fun (key, _) ->
          let path = if path = "" then key else path ^ "." ^ key in
          match (List.assoc_opt key g, List.assoc_opt key f) with
          | _ when key = "per_point" -> []
          | Some g, Some f -> walk path g f
          | g, f -> differs path g f)
        (g @ fresh_only)
  | Json.List g, Json.List f when List.compare_lengths g f = 0 ->
      List.concat
        (List.mapi (fun i (g, f) -> walk (Printf.sprintf "%s[%d]" path i) g f) (List.combine g f))
  | _ -> (
      match (Json.to_float_opt golden, Json.to_float_opt fresh) with
      | Some g, Some f when Float.abs (g -. f) <= epsilon -> []
      | Some g, Some f when measured golden || measured fresh ->
          [
            line path
              (Printf.sprintf "golden %.17g, got %.17g (|delta| %.3g > epsilon %.3g)" g f
                 (Float.abs (g -. f))
                 epsilon);
          ]
      | _ -> if golden = fresh then [] else differs path (Some golden) (Some fresh))

let diff ~golden fresh = walk "" golden fresh

let compare_file ~name path fresh =
  match load path with
  | Error msg -> [ name ^ ": " ^ msg ]
  | Ok golden -> List.map (fun line -> name ^ ": " ^ line) (diff ~golden fresh)

let compare_run ~dir reports summary =
  List.concat_map
    (fun (r : Report.t) ->
      let name = r.Report.workload in
      compare_file ~name (workload_file ~dir name) (Report.to_json r))
    reports
  @
  match summary with
  | None -> []
  | Some s -> compare_file ~name:"summary" (summary_file ~dir) (Report.summary_to_json s)
