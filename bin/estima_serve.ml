(* estima_serve: the prediction service.

   Speaks newline-delimited JSON (one request, one response per line)
   over stdin/stdout or a Unix domain socket; see Estima_service.Protocol
   for the request and response shapes.  Knobs mirror `estima_cli
   predict`: both binaries build the same Estima.Config.t through
   Config.make, so a served request and `estima_cli predict --from` on
   the same CSV produce byte-identical prediction text. *)

open Cmdliner
open Estima_machine
open Estima
module Server = Estima_service.Server
module Wire = Estima_service.Wire

let machine_conv =
  let parse s =
    match Machines.find s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown machine %S (known: %s)" s
                (String.concat ", " (List.map (fun m -> m.Topology.name) Machines.all))))
  in
  let print ppf m = Format.fprintf ppf "%s" m.Topology.name in
  Arg.conv (parse, print)

let machine_arg =
  Arg.(
    value
    & opt machine_conv (Machines.restrict_sockets Machines.opteron48 ~sockets:1)
    & info [ "machine"; "m" ] ~docv:"MACHINE"
        ~doc:"Machine the served CSV measurements were collected on.")

let sockets_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sockets" ] ~docv:"N" ~doc:"Restrict the measurements machine to its first $(docv) sockets.")

let target_arg =
  Arg.(
    value
    & opt machine_conv Machines.opteron48
    & info [ "target"; "t" ] ~docv:"MACHINE"
        ~doc:"Machine to extrapolate to; its core count is the default target_max.")

(* The cross-binary flags (--jobs/--store) come from Config.Args so all
   three binaries accept the same spellings and print the same errors;
   the pool wants a concrete size, so the shared optional flag resolves
   through require_jobs. *)
let jobs_arg = Config.Args.jobs

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Bounded request queue: at most $(docv) predict requests are admitted per batch;            the rest are shed with a typed `overloaded` error (exit_code 4 on the wire).")

let cache_arg =
  Arg.(
    value & opt int 128
    & info [ "cache" ] ~docv:"N" ~doc:"Result cache capacity (LRU entries).")

let timeout_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Default queue-wait deadline: a request still waiting after $(docv) ms is shed with            a typed `deadline-exceeded` error.  Requests may override with their own            timeout_ms member.  Without this option requests wait forever.")

let store_arg = Config.Args.store

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix domain socket at $(docv) (serving concurrent connections)            instead of stdin/stdout.")

(* HOST:PORT, split at the last ':' so a future bracketed-IPv6 host
   still has a chance; PORT may be 0 (kernel-assigned, reported on
   stderr once the listener is bound). *)
let tcp_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg (Printf.sprintf "bad TCP address %S (expected HOST:PORT)" s))
    | Some i -> (
        let host = String.sub s 0 i and port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p <= 65535 && host <> "" -> Ok (host, p)
        | _ -> Error (`Msg (Printf.sprintf "bad TCP address %S (expected HOST:PORT)" s)))
  in
  let print ppf (host, port) = Format.fprintf ppf "%s:%d" host port in
  Arg.conv (parse, print)

let tcp_arg =
  Arg.(
    value
    & opt (some tcp_conv) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:
          "Listen on TCP $(docv) (serving concurrent connections) instead of stdin/stdout.            PORT 0 asks the kernel for a free port; the actually bound address is printed            on stderr either way.  Mutually exclusive with $(b,--socket).")

let max_buffer_arg =
  Arg.(
    value
    & opt int Wire.default_max_buffer_bytes
    & info [ "max-buffer" ] ~docv:"BYTES"
        ~doc:
          "Per-connection buffer cap.  Input: a peer that streams $(docv) bytes without a \
           newline is shed with a typed `frame-too-large` error and its buffered bytes are \
           dropped (the stream resynchronises at the next newline) instead of growing the \
           buffer without bound.  Output (socket and TCP modes): a connection holding more \
           than $(docv) bytes of responses its peer has not read yet is not read from until \
           they drain.")

let max_conns_arg =
  Arg.(
    value
    & opt int Wire.default_max_connections
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "Socket listener connection cap: a client connecting past $(docv) concurrent            connections is answered with one typed `overloaded` error line and closed.")

(* --inject-fault is the fault-injection harness's handle on the real
   binary: it arms Server.inject_fault before serving.  Testing only. *)
let fault_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
           (Printf.sprintf
              "bad fault %S (expected SPEC:raise[:MSG], SPEC:delay:SECONDS or SPEC:garbage)" s))
    in
    match String.split_on_char ':' s with
    | [ spec; "raise" ] -> Ok (spec, Server.Fault_raise "injected fault")
    | [ spec; "raise"; msg ] -> Ok (spec, Server.Fault_raise msg)
    | [ spec; "delay"; seconds ] -> (
        match float_of_string_opt seconds with
        | Some f when f >= 0.0 -> Ok (spec, Server.Fault_delay f)
        | _ -> fail ())
    | [ spec; "garbage" ] -> Ok (spec, Server.Fault_garbage)
    | _ -> fail ()
  in
  let print ppf (spec, _) = Format.fprintf ppf "%s:<fault>" spec in
  Arg.conv (parse, print)

let inject_fault_arg =
  Arg.(
    value
    & opt_all fault_conv []
    & info [ "inject-fault" ] ~docv:"SPEC:FAULT"
        ~doc:
          "TESTING ONLY.  Make the predict pipeline misbehave for series named SPEC:            $(docv) is SPEC:raise[:MSG] (raise instead of answering — served as a typed            `internal` error, exit code 5), SPEC:delay:SECONDS (stall before answering) or            SPEC:garbage (serve garbage bytes, bypassing the cache).  Repeatable.")

let serve machine sockets target jobs queue cache timeout_ms socket_path tcp_addr max_buffer
    max_conns faults store_dir =
  if max_buffer < 1 then begin
    prerr_endline (Printf.sprintf "estima_serve: --max-buffer %d: must be >= 1" max_buffer);
    exit 1
  end;
  if max_conns < 1 then begin
    prerr_endline (Printf.sprintf "estima_serve: --max-conns %d: must be >= 1" max_conns);
    exit 1
  end;
  if socket_path <> None && tcp_addr <> None then begin
    prerr_endline "estima_serve: --socket and --tcp are mutually exclusive";
    exit 1
  end;
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
  let config =
    {
      Server.machine;
      target = Some target;
      base;
      jobs = Config.Args.require_jobs ~default:1 jobs;
      queue_capacity = queue;
      cache_capacity = cache;
      default_timeout_ms = timeout_ms;
      store_dir;
    }
  in
  match Server.create config with
  | exception Invalid_argument msg ->
      prerr_endline ("estima_serve: " ^ msg);
      exit 1
  | server ->
      List.iter (fun (spec, fault) -> Server.inject_fault server ~spec fault) faults;
      Fun.protect
        ~finally:(fun () -> Server.shutdown server)
        (fun () ->
          match (socket_path, tcp_addr) with
          | Some path, _ ->
              Wire.serve_socket ~max_buffer_bytes:max_buffer ~max_connections:max_conns server
                ~path
          | None, Some (host, port) ->
              (* The bound address goes to stderr (stdout belongs to the
                 stdio protocol, and keeping it clean costs nothing):
                 with PORT 0 this line is how clients learn the port. *)
              Wire.serve_tcp ~max_buffer_bytes:max_buffer ~max_connections:max_conns
                ~on_listen:(fun host port ->
                  Printf.eprintf "estima_serve: listening on %s:%d\n%!" host port)
                server ~host ~port
          | None, None -> Wire.serve_stdio ~max_buffer_bytes:max_buffer server)

let cmd =
  let doc = "serve scalability predictions over newline-delimited JSON" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Requests: {\"id\":1,\"op\":\"predict\",\"file\":\"m.csv\"} (or \"csv\" inline), \
         {\"op\":\"metrics\"}, {\"op\":\"shutdown\"}.  Successful predict responses carry the \
         exact text `estima_cli predict` prints, split into summary/header/rows/verdict; \
         failures carry the typed diagnostic with its CLI exit code.  Protocol version 2 \
         requests ({\"v\":2}) may additionally ask for bootstrap confidence bands with \
         {\"confidence\":RESAMPLES}; requests without \"v\" get the version 1 wire format, \
         byte for byte.";
    ]
  in
  Cmd.v
    (Cmd.info "estima_serve" ~version:"1.0.0" ~doc ~man)
    Term.(
      const serve $ machine_arg $ sockets_arg $ target_arg $ jobs_arg $ queue_arg $ cache_arg
      $ timeout_arg $ socket_arg $ tcp_arg $ max_buffer_arg $ max_conns_arg $ inject_fault_arg
      $ store_arg)

let () = exit (Cmd.eval cmd)
