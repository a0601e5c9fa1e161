(* estima_load: deterministic load testing for estima_serve.

   Builds a seeded request plan (Estima_load.Generator) whose expected
   response bytes are precomputed through Estima_service.Server.answer,
   the function the server answers with, plays it against a server over
   TCP, a Unix socket or spawned stdio processes (Estima_load.Driver),
   and verifies every response by string equality.  Exit 0 iff the run
   is clean: every request answered with exactly its expected bytes —
   which are in turn byte-identical to `estima_cli predict` output.

   The plan's --machine/--sockets/--target must mirror a running
   server's flags (the defaults match estima_serve's defaults); a server
   this tool spawns itself is started with them. *)

open Cmdliner
open Estima_machine
open Estima
module Generator = Estima_load.Generator
module Driver = Estima_load.Driver
module Report = Estima_load.Report

let machine_arg =
  Config.Args.machine ~default:(Machines.restrict_sockets Machines.opteron48 ~sockets:1)
    [ "machine"; "m" ]
    "Measurements machine the server was started with (must match its $(b,--machine)); a      spawned server is started with it."

let target_arg =
  Config.Args.machine ~default:Machines.opteron48 [ "target"; "t" ]
    "Target machine the server was started with (must match its $(b,--target)); a spawned      server is started with it."

let tcp_arg = Config.Args.tcp "Connect to a running estima_serve at TCP $(docv)."

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Connect to a running estima_serve at the Unix domain socket $(docv).")

let spawn_tcp_arg =
  Arg.(
    value & flag
    & info [ "spawn-tcp" ]
        ~doc:
          "Spawn one estima_serve ($(b,--serve-exe)) on TCP 127.0.0.1 with a kernel-assigned            port, run against it, and shut it down gracefully afterwards.")

let serve_exe_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve-exe" ] ~docv:"PATH"
        ~doc:
          "The estima_serve binary for $(b,--spawn-tcp) and the default stdio mode            (default: the one built next to this binary).")

let serve_jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve-jobs" ] ~docv:"N"
        ~doc:"Pass $(b,--jobs) $(docv) to the spawned server (spawning modes only).")

let clients_arg =
  Arg.(value & opt int 2 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")

let requests_arg =
  Arg.(value & opt int 20 & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Plan seed: same seed, same bytes.")

let payload_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "payload" ] ~docv:"WORKLOAD"
        ~doc:
          "Suite workload collected locally and sent as inline CSV, repeatable            (default: kmeans and genome).")

let workload_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "workload" ] ~docv:"WORKLOAD"
        ~doc:"Workload requested by name (server-side collection), repeatable (default: kmeans).")

let mix_conv =
  let parse s =
    match List.map int_of_string_opt (String.split_on_char ',' s) with
    | [ Some v1; Some v2; Some workload; Some confidence; Some malformed ]
      when v1 >= 0 && v2 >= 0 && workload >= 0 && confidence >= 0 && malformed >= 0 ->
        Ok { Generator.v1; v2; workload; confidence; malformed }
    | _ ->
        Error
          (`Msg
             (Printf.sprintf "bad mix %S (expected five non-negative weights V1,V2,WL,CONF,MAL)" s))
  in
  let print ppf (m : Generator.mix) =
    Format.fprintf ppf "%d,%d,%d,%d,%d" m.v1 m.v2 m.workload m.confidence m.malformed
  in
  Arg.conv (parse, print)

let mix_arg =
  Arg.(
    value
    & opt mix_conv Generator.default_mix
    & info [ "mix" ] ~docv:"V1,V2,WL,CONF,MAL"
        ~doc:
          "Relative weights of the request kinds: v1 predict, v2 predict, workload-by-name,            v2 predict with confidence bands, deliberately malformed (default 5,3,1,0,1).")

let resamples_arg =
  Arg.(
    value & opt int 25
    & info [ "confidence-resamples" ] ~docv:"N"
        ~doc:"Bootstrap resamples on confidence requests (when the CONF weight is nonzero).")

let timeout_arg =
  Arg.(
    value & opt float 120.0
    & info [ "timeout-s" ] ~docv:"S" ~doc:"Per-response deadline before a client gives up.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Print the report as one JSON object instead of text.")

let require_serve_exe = function
  | Some exe -> exe
  | None -> (
      match Driver.locate_serve_exe () with
      | Some exe -> exe
      | None ->
          prerr_endline
            "estima_load: cannot find estima_serve next to this binary; pass --serve-exe";
          exit 1)

let run machine sockets target tcp socket spawn_tcp serve_exe serve_jobs clients requests seed
    payloads workloads mix resamples timeout_s json =
  if clients < 1 then begin
    prerr_endline "estima_load: --clients must be >= 1";
    exit 1
  end;
  if requests < 1 then begin
    prerr_endline "estima_load: --requests must be >= 1";
    exit 1
  end;
  if List.length (List.filter Fun.id [ tcp <> None; socket <> None; spawn_tcp ]) > 1 then begin
    prerr_endline "estima_load: --tcp, --socket and --spawn-tcp are mutually exclusive";
    exit 1
  end;
  (match tcp with
  | Some (host, 0) ->
      prerr_endline (Printf.sprintf "estima_load: --tcp %s:0: the port must be 1..65535" host);
      exit 1
  | _ -> ());
  let machine =
    match sockets with
    | None -> machine
    | Some sockets -> (
        match Api.validate_sockets ~machine ~sockets with
        | Ok () -> Machines.restrict_sockets machine ~sockets
        | Error d ->
            prerr_endline (Diag.render d);
            exit 1)
  in
  let base = Config.make ~measured_on:machine ~target () in
  let payload_names = match payloads with [] -> [ "kmeans"; "genome" ] | names -> names in
  let workloads = match workloads with [] -> [ "kmeans" ] | names -> names in
  (* A spawned server answers for the plan's machines. *)
  let serve_args =
    [ "--machine"; machine.Topology.name; "--target"; target.Topology.name ]
    @ match serve_jobs with None -> [] | Some n -> [ "--jobs"; string_of_int n ]
  in
  let plan =
    try
      let payloads = Generator.suite_payloads ~machine payload_names in
      Generator.plan ~mix ~confidence_resamples:resamples ~workloads ~payloads ~machine ~target
        ~base ~seed ~clients ~requests_per_client:requests ()
    with Invalid_argument msg ->
      prerr_endline ("estima_load: " ^ msg);
      exit 1
  in
  let play target = Driver.run ~timeout_s target plan in
  let outcome =
    match (tcp, socket, spawn_tcp) with
    | Some (host, port), _, _ -> play (Driver.Tcp { host; port })
    | None, Some path, _ -> play (Driver.Unix_socket path)
    | None, None, true ->
        let exe = require_serve_exe serve_exe in
        let server = Driver.spawn_tcp_server ~args:serve_args ~exe () in
        Fun.protect
          ~finally:(fun () -> Driver.stop_server server)
          (fun () -> play (Driver.Tcp { host = server.Driver.host; port = server.Driver.port }))
    | None, None, false ->
        (* Default: one spawned stdio server per client — no ports, no
           socket files, works anywhere the build ran. *)
        let exe = require_serve_exe serve_exe in
        play (Driver.Stdio (Array.of_list (exe :: serve_args)))
  in
  print_string (if json then Report.to_json plan outcome ^ "\n" else Report.to_text plan outcome);
  exit (if Driver.clean outcome then 0 else 1)

let cmd =
  let doc = "deterministic load testing for estima_serve" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates a seeded stream of v1/v2 predict, workload-by-name, confidence and \
         deliberately malformed requests, plays it over concurrent connections, and verifies \
         every response against bytes precomputed through the same pipeline the server runs: \
         a clean run (exit 0) means every response — including every typed error — was \
         byte-identical to its expectation.";
    ]
  in
  Cmd.v
    (Cmd.info "estima_load" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ machine_arg $ Config.Args.sockets $ target_arg $ tcp_arg $ socket_arg
      $ spawn_tcp_arg $ serve_exe_arg $ serve_jobs_arg $ clients_arg $ requests_arg $ seed_arg
      $ payload_arg $ workload_arg $ mix_arg $ resamples_arg $ timeout_arg $ json_arg)

let () = exit (Cmd.eval cmd)
