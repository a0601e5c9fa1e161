module Clock = Estima_obs.Clock
module Metrics = Estima_obs.Metrics
module Wire = Estima_service.Wire

type target =
  | Stdio of string array
  | Unix_socket of string
  | Tcp of { host : string; port : int }

type mismatch = {
  client : int;
  id : int;
  kind : Generator.kind;
  expected : string;
  got : string;
}

type outcome = {
  sent : int;
  received : int;
  matched : int;
  mismatched : int;
  timed_out : int;
  mismatches : mismatch list;
  elapsed_s : float;
  latency : Metrics.Histogram.snapshot;
}

let clean o =
  o.sent = o.received && o.received = o.matched && o.mismatched = 0 && o.timed_out = 0

let max_recorded_mismatches = 5

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* One client's duplex channel to the server: a socket (same fd both
   ways) or a spawned process's pipes. *)
type conn = { infd : Unix.file_descr; outfd : Unix.file_descr; pid : int option }

let connect_tcp ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Wire.resolve_host host, port))
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise exn);
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  fd

let connect target =
  match target with
  | Tcp { host; port } ->
      let fd = connect_tcp ~host ~port in
      { infd = fd; outfd = fd; pid = None }
  | Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with exn ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise exn);
      { infd = fd; outfd = fd; pid = None }
  | Stdio argv ->
      let server_stdin_r, server_stdin_w = Unix.pipe ~cloexec:true () in
      let server_stdout_r, server_stdout_w = Unix.pipe ~cloexec:true () in
      Unix.clear_close_on_exec server_stdin_r;
      Unix.clear_close_on_exec server_stdout_w;
      let pid =
        Unix.create_process argv.(0) argv server_stdin_r server_stdout_w Unix.stderr
      in
      Unix.close server_stdin_r;
      Unix.close server_stdout_w;
      { infd = server_stdout_r; outfd = server_stdin_w; pid = Some pid }

let close_conn conn =
  (try Unix.close conn.outfd with Unix.Unix_error _ -> ());
  if conn.infd <> conn.outfd then
    (try Unix.close conn.infd with Unix.Unix_error _ -> ());
  match conn.pid with
  | None -> ()
  | Some pid -> ( try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())

let write_all fd bytes =
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then
      let written = Unix.write fd bytes off (n - off) in
      go (off + written)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* The per-client loop                                                 *)
(* ------------------------------------------------------------------ *)

type client_result = {
  c_sent : int;
  c_received : int;
  c_matched : int;
  c_mismatched : int;
  c_timed_out : int;
  c_mismatches : mismatch list;
}

(* A closed loop, window of one: the next request goes out once the
   previous response has arrived.  Responses are matched FIFO against the
   pending queue — the transports answer each connection's lines in wire
   order, so any reordering or extra line shows up as a mismatch, which
   is exactly what we want the harness to catch. *)
let run_client ~client ~timeout_s ~hist conn (stream : Generator.request array) =
  let n = Array.length stream in
  let pending : (Generator.request * float) Queue.t = Queue.create () in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let sent = ref 0 in
  let received = ref 0 in
  let matched = ref 0 in
  let mismatched = ref 0 in
  let mismatches = ref [] in
  let eof = ref false in
  let consume_line line =
    let request, sent_at = Queue.pop pending in
    Metrics.Histogram.observe hist (Clock.now_s () -. sent_at);
    incr received;
    if String.equal line request.Generator.expected then incr matched
    else begin
      incr mismatched;
      if List.length !mismatches < max_recorded_mismatches then
        mismatches :=
          {
            client;
            id = request.Generator.id;
            kind = request.Generator.kind;
            expected = request.Generator.expected;
            got = line;
          }
          :: !mismatches
    end
  in
  let deadline = ref (Clock.now_s () +. timeout_s) in
  (try
     while (!sent < n || not (Queue.is_empty pending)) && not !eof do
       let now = Clock.now_s () in
       if now > !deadline then raise Exit;
       if Queue.is_empty pending then begin
         let request = stream.(!sent) in
         write_all conn.outfd (Bytes.of_string (request.Generator.line ^ "\n"));
         Queue.add (request, Clock.now_s ()) pending;
         incr sent;
         deadline := Clock.now_s () +. timeout_s
       end
       else begin
         (* Wait for the response, but no longer than the deadline. *)
         let readable, _, _ =
           Unix.select [ conn.infd ] [] [] (Float.max 0.0 (Float.min (!deadline -. now) 0.5))
         in
         if readable <> [] then begin
           let read = Unix.read conn.infd chunk 0 (Bytes.length chunk) in
           if read = 0 then eof := true
           else begin
             Buffer.add_subbytes buf chunk 0 read;
             let lines = Wire.split_lines buf in
             List.iter
               (fun line ->
                 if not (Queue.is_empty pending) then begin
                   consume_line line;
                   deadline := Clock.now_s () +. timeout_s
                 end)
               lines
           end
         end
       end
     done
   with
  | Exit -> ()
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> eof := true);
  close_conn conn;
  {
    c_sent = !sent;
    c_received = !received;
    c_matched = !matched;
    c_mismatched = !mismatched;
    c_timed_out = (n - !sent) + Queue.length pending;
    c_mismatches = List.rev !mismatches;
  }

let run ?(timeout_s = 120.0) target (plan : Generator.plan) =
  let registry = Metrics.create () in
  let hist = Metrics.histogram registry "load_latency_seconds" in
  let started = Clock.now_s () in
  let domains =
    Array.mapi
      (fun client stream ->
        (* Connect in the parent so an unreachable server raises here
           rather than dying inside a domain. *)
        let conn = connect target in
        Domain.spawn (fun () -> run_client ~client ~timeout_s ~hist conn stream))
      plan.Generator.streams
  in
  let results = Array.map Domain.join domains in
  let elapsed_s = Clock.now_s () -. started in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  {
    sent = sum (fun r -> r.c_sent);
    received = sum (fun r -> r.c_received);
    matched = sum (fun r -> r.c_matched);
    mismatched = sum (fun r -> r.c_mismatched);
    timed_out = sum (fun r -> r.c_timed_out);
    mismatches =
      List.concat_map (fun r -> r.c_mismatches) (Array.to_list results)
      |> List.filteri (fun i _ -> i < max_recorded_mismatches);
    elapsed_s;
    latency = Metrics.Histogram.snapshot hist;
  }

(* ------------------------------------------------------------------ *)
(* Spawning a TCP server under test                                    *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; host : string; port : int }

let listening_re_prefix = "estima_serve: listening on "

let parse_listening_line contents =
  let lines = String.split_on_char '\n' contents in
  List.find_map
    (fun line ->
      if String.length line > String.length listening_re_prefix
         && String.sub line 0 (String.length listening_re_prefix) = listening_re_prefix
      then
        let addr =
          String.sub line
            (String.length listening_re_prefix)
            (String.length line - String.length listening_re_prefix)
        in
        match String.rindex_opt addr ':' with
        | None -> None
        | Some i -> (
            let host = String.sub addr 0 i in
            match int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1)) with
            | Some port -> Some (host, port)
            | None -> None)
      else None)
    lines

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let spawn_tcp_server ?(wait_s = 10.0) ?(args = []) ~exe () =
  let stderr_path = Filename.temp_file "estima_load_serve" ".stderr" in
  let stderr_fd =
    Unix.openfile stderr_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let argv = Array.of_list ((exe :: [ "--tcp"; "127.0.0.1:0" ]) @ args) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process exe argv devnull Unix.stdout stderr_fd in
  Unix.close devnull;
  Unix.close stderr_fd;
  (* stderr goes to a file, not a pipe: nothing to drain, no deadlock if
     the server logs more than we read, and the listening line survives
     for the error message if the server dies at startup. *)
  let deadline = Clock.now_s () +. wait_s in
  let rec wait () =
    let contents = try read_file stderr_path with Sys_error _ -> "" in
    match parse_listening_line contents with
    | Some (host, port) ->
        Sys.remove stderr_path;
        { pid; host; port }
    | None ->
        let stopped, _ = Unix.waitpid [ Unix.WNOHANG ] pid in
        if stopped <> 0 then
          failwith
            (Printf.sprintf "Driver.spawn_tcp_server: %s exited before listening; stderr: %s"
               exe contents)
        else if Clock.now_s () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          failwith
            (Printf.sprintf "Driver.spawn_tcp_server: no listening line after %.1fs; stderr: %s"
               wait_s contents)
        end
        else begin
          ignore (Unix.select [] [] [] 0.02);
          wait ()
        end
  in
  wait ()

let stop_server ?(grace_s = 5.0) server =
  (try
     let fd = connect_tcp ~host:server.host ~port:server.port in
     write_all fd (Bytes.of_string "{\"id\":0,\"op\":\"shutdown\"}\n");
     (* Read until the peer closes so the response is not lost in a
        reset; content is irrelevant here. *)
     let chunk = Bytes.create 4096 in
     let rec drain () =
       match Unix.select [ fd ] [] [] grace_s with
       | [], _, _ -> ()
       | _ -> if Unix.read fd chunk 0 (Bytes.length chunk) > 0 then drain ()
     in
     (try drain () with Unix.Unix_error _ -> ());
     try Unix.close fd with Unix.Unix_error _ -> ()
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  let deadline = Clock.now_s () +. grace_s in
  let rec wait () =
    let stopped, _ = Unix.waitpid [ Unix.WNOHANG ] server.pid in
    if stopped = 0 then
      if Clock.now_s () > deadline then begin
        (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] server.pid)
      end
      else begin
        ignore (Unix.select [] [] [] 0.02);
        wait ()
      end
  in
  try wait () with Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let locate_serve_exe () =
  let dir = Filename.dirname Sys.executable_name in
  let candidates =
    [
      Filename.concat dir "estima_serve.exe";
      Filename.concat dir "estima_serve";
      Filename.concat dir "../bin/estima_serve.exe";
      Filename.concat dir "../bin/estima_serve";
    ]
  in
  List.find_opt Sys.file_exists candidates
