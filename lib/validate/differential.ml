open Estima_counters
module Json = Estima_json.Json
module Topology = Estima_machine.Topology

(* The two settings CI runs the test suite under. *)
let default_jobs = [ 1; 4 ]

type observation = { workload : string; jobs : int; api : string; cli : string; server : string }

let default_bin name = Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name)

let split_lines s = String.split_on_char '\n' s

let first_divergence a b =
  if a = b then "identical"
  else
    let la = split_lines a and lb = split_lines b in
    let rec go i = function
      | x :: xs, y :: ys ->
          if x = y then go (i + 1) (xs, ys)
          else Printf.sprintf "line %d: %S vs %S" i x y
      | x :: _, [] -> Printf.sprintf "line %d: %S vs end of text" i x
      | [], y :: _ -> Printf.sprintf "line %d: end of text vs %S" i y
      | [], [] -> Printf.sprintf "lengths differ (%d vs %d bytes)" (String.length a) (String.length b)
    in
    go 1 (la, lb)

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  Buffer.contents buf

let status_label = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

(* [cmd]'s stdout, once it exits 0.  The [input] lines are written to its
   stdin up front (serve's requests are tiny — far below the pipe
   buffer; the CLI gets none and never reads), then stdin closes and
   stdout is read to EOF. *)
let run_process cmd ~input =
  let ic, oc = Unix.open_process cmd in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    input;
  close_out oc;
  let out = read_all ic in
  match Unix.close_process (ic, oc) with
  | Unix.WEXITED 0 -> Ok out
  | status -> Error (Printf.sprintf "%s: %s" cmd (status_label status))

let response_text line =
  match Json.parse line with
  | Error e -> Error (Printf.sprintf "unparseable response %S: %s" line e)
  | Ok json -> (
      match Json.member "ok" json with
      | Some (Json.Bool true) -> (
          let str key = Option.bind (Json.member key json) Json.to_string_opt in
          let rows =
            match Json.member "rows" json with
            | Some (Json.List rows) ->
                let strs = List.filter_map Json.to_string_opt rows in
                if List.length strs = List.length rows then Some strs else None
            | _ -> None
          in
          match (str "summary", str "header", rows, str "verdict") with
          | Some summary, Some header, Some rows, Some verdict ->
              Ok
                (summary ^ "\n\n" ^ header ^ "\n" ^ String.concat "\n" rows ^ "\n\nprediction: "
               ^ verdict ^ "\n")
          | _ -> Error (Printf.sprintf "incomplete predict response %S" line))
      | _ -> Error (Printf.sprintf "server error response: %s" line))

let machine_args (p : Report.protocol) =
  [ "-m"; p.Report.machine ]
  @ (match p.Report.sockets with None -> [] | Some s -> [ "--sockets"; string_of_int s ])
  @ [ "-t"; p.Report.target ]

let csv_path ~dir (source : Backtest.source) = Filename.concat dir (source.Backtest.name ^ ".csv")

let write_inputs ~dir sources =
  List.iter
    (fun (source : Backtest.source) ->
      let series =
        Series.truncate source.Backtest.measured
          ~max_threads:source.Backtest.protocol.Report.window
      in
      Csv_export.write ~path:(csv_path ~dir source) (Csv_export.series_to_csv series))
    sources

(* The Api surface, configured exactly as `estima_cli predict --from`
   configures itself: default knobs (hardware counters only) plus the
   machine pair, with the jobs override pinned as --jobs pins it. *)
let api_text ~jobs ~path (source : Backtest.source) =
  let measured_on, target = Corpus.machines source.Backtest.protocol in
  let config = Estima.Config.make ~measured_on ~target () in
  Estima_par.Fanout.set_jobs (Some jobs);
  match Estima.Api.load_series ~machine:measured_on path with
  | Error d -> Error (Printf.sprintf "api ingest: %s" (Estima.Diag.render d))
  | Ok series -> (
      match
        Estima.Api.predict ~config ~series ~target_max:(Topology.cores target) ()
      with
      | Error d -> Error (Printf.sprintf "api predict: %s" (Estima.Diag.render d))
      | Ok prediction -> Ok (Estima.Api.render_text prediction))

(* The CSV inputs get a directory of their own, removed with its files
   on return, whether the differential passed, failed or raised. *)
let with_work_dir f =
  let dir = Filename.temp_dir (Printf.sprintf "estima_validate_%d_" (Unix.getpid ())) "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let run sources =
  let cli_bin = default_bin "estima_cli.exe" and serve_bin = default_bin "estima_serve.exe" in
  (* One serve process answers the whole corpus, so every source must
     agree on the machine pair it is served under. *)
  (match sources with
  | [] -> ()
  | first :: rest ->
      let key (s : Backtest.source) = machine_args s.Backtest.protocol in
      List.iter
        (fun s ->
          if key s <> key first then
            invalid_arg
              (Printf.sprintf "Differential.run: %s and %s use different machine protocols"
                 first.Backtest.name s.Backtest.name))
        rest);
  with_work_dir @@ fun dir ->
  write_inputs ~dir sources;
  let saved_jobs = Estima_par.Fanout.jobs () in
  Fun.protect
    ~finally:(fun () -> Estima_par.Fanout.set_jobs (Some saved_jobs))
    (fun () ->
      let mismatches = ref [] in
      let note fmt = Printf.ksprintf (fun m -> mismatches := m :: !mismatches) fmt in
      let observations = ref [] in
      List.iter
        (fun jobs ->
          (* One serve process per jobs setting answers the whole corpus. *)
          let protocol =
            match sources with
            | [] -> None
            | s :: _ -> Some s.Backtest.protocol
          in
          let serve_texts =
            match protocol with
            | None -> []
            | Some p -> (
                let cmd =
                  Filename.quote_command serve_bin
                    (machine_args p @ [ "--jobs"; string_of_int jobs ])
                in
                let requests =
                  List.mapi
                    (fun i (s : Backtest.source) ->
                      Json.to_string
                        (Json.Obj
                           [
                             ("id", Json.Int i);
                             ("op", Json.String "predict");
                             ("file", Json.String (csv_path ~dir s));
                           ]))
                    sources
                  @ [ Json.to_string (Json.Obj [ ("op", Json.String "shutdown") ]) ]
                in
                (* One serve process answers every corpus workload, and
                   the shutdown request ends it. *)
                match run_process cmd ~input:requests with
                | Error msg ->
                    note "jobs=%d: serve: %s" jobs msg;
                    []
                | Ok out ->
                    (* Drop blank lines and the shutdown acknowledgement
                       ({"bye":true}); responses come back in request
                       order. *)
                    let predicts =
                      List.filter
                        (fun l ->
                          l <> ""
                          && (match Json.parse l with
                             | Ok json -> Json.member "bye" json = None
                             | Error _ -> true))
                        (split_lines out)
                    in
                    if List.length predicts <> List.length sources then begin
                      note "jobs=%d: serve answered %d of %d requests" jobs
                        (List.length predicts) (List.length sources);
                      []
                    end
                    else predicts)
          in
          List.iteri
            (fun i (source : Backtest.source) ->
              let name = source.Backtest.name in
              let path = csv_path ~dir source in
              let where surface msg = note "%s@jobs=%d: %s: %s" name jobs surface msg in
              let api =
                match api_text ~jobs ~path source with
                | Ok t -> Some t
                | Error msg ->
                    where "api" msg;
                    None
              in
              let cli =
                let cmd =
                  Filename.quote_command cli_bin
                    ([ "predict"; "--from"; path ]
                    @ machine_args source.Backtest.protocol
                    @ [ "--jobs"; string_of_int jobs ])
                in
                match run_process cmd ~input:[] with
                | Ok t -> Some t
                | Error msg ->
                    where "cli" msg;
                    None
              in
              let server =
                match List.nth_opt serve_texts i with
                | None -> None
                | Some line -> (
                    match response_text line with
                    | Ok t -> Some t
                    | Error msg ->
                        where "server" msg;
                        None)
              in
              match (api, cli, server) with
              | Some api, Some cli, Some server ->
                  if api = "" then where "api" "empty prediction text";
                  if cli <> api then
                    where "cli" ("differs from api: " ^ first_divergence api cli);
                  if server <> api then
                    where "server" ("differs from api: " ^ first_divergence api server);
                  if cli = api && server = api && api <> "" then
                    observations := { workload = name; jobs; api; cli; server } :: !observations
              | _ -> ())
            sources)
        default_jobs;
      match !mismatches with
      | [] -> Ok (List.rev !observations)
      | ms -> Error (List.rev ms))
