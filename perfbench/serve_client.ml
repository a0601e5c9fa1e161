(* The load side of the serve workloads: a spawned estima_serve --tcp and
   one connection from the benchmark process, one request outstanding at
   a time.

   The socket is non-blocking and every wait is one select over readable
   and writable together, so a request is never stuck in a blocking write
   while the server has something to say. *)

module Driver = Estima_load.Driver

type server = { pid : int; host : string; port : int }

let listening_prefix = "estima_serve: listening on "

let parse_listening contents =
  String.split_on_char '\n' contents
  |> List.find_map (fun line ->
         let n = String.length listening_prefix in
         if String.length line > n && String.sub line 0 n = listening_prefix then
           let addr = String.sub line n (String.length line - n) in
           match String.rindex_opt addr ':' with
           | None -> None
           | Some i ->
               Option.map
                 (fun port -> (String.sub addr 0 i, port))
                 (int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1)))
         else None)

let spawn_count = ref 0

(* Start the server on a kernel-assigned port with the ESTIMA_*
   environment removed, so only the flags given here configure it. *)
let spawn ~args =
  let exe =
    match Driver.locate_serve_exe () with
    | Some exe -> exe
    | None -> failwith "cannot find estima_serve.exe next to the benchmark binary"
  in
  incr spawn_count;
  let stderr_path =
    Filename.concat (Lazy.force Util.scratch) (Printf.sprintf "serve-%d.stderr" !spawn_count)
  in
  let stderr_fd = Unix.openfile stderr_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.length kv >= 7 && String.sub kv 0 7 = "ESTIMA_"))
         (Array.to_list (Unix.environment ())))
  in
  let argv = Array.of_list ((exe :: [ "--tcp"; "127.0.0.1:0" ]) @ args) in
  let pid = Unix.create_process_env exe argv env devnull devnull stderr_fd in
  Unix.close devnull;
  Unix.close stderr_fd;
  let deadline = Util.now () +. 10.0 in
  let rec wait () =
    let contents = try Util.read_file stderr_path with Sys_error _ -> "" in
    match parse_listening contents with
    | Some (host, port) -> { pid; host; port }
    | None ->
        let exited, _ = Unix.waitpid [ Unix.WNOHANG ] pid in
        if exited <> 0 then failwith ("estima_serve exited before listening: " ^ contents)
        else if Util.now () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          failwith ("estima_serve did not report its port: " ^ contents)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
  in
  wait ()

(* Graceful shutdown (the server drains), a kill after 5 s, and the
   child reaped either way. *)
let stop server = Driver.stop_server { Driver.pid = server.pid; host = server.host; port = server.port }

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
  mutable in_len : int;  (** Received bytes not yet part of a complete line. *)
  mutable closed : bool;
}

let connect server =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string server.host, server.port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; inbuf = Bytes.create 131072; in_len = 0; closed = false }

let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Send [line] and wait up to [timeout_s] for the response line; None on
   a timeout or a hangup. *)
let request c line ~timeout_s =
  let out = line ^ "\n" in
  let sent = ref 0 in
  let deadline = Util.now () +. timeout_s in
  let answer = ref None in
  while !answer = None && (not c.closed) && Util.now () < deadline do
    let writing = !sent < String.length out in
    let readable, writable, _ =
      try Unix.select [ c.fd ] (if writing then [ c.fd ] else []) [] (Float.max 0.0 (deadline -. Util.now ()))
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if writable <> [] then begin
      match Unix.single_write_substring c.fd out !sent (String.length out - !sent) with
      | n -> sent := !sent + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> close c
    end;
    if readable <> [] && not c.closed then begin
      if Bytes.length c.inbuf - c.in_len < 65536 then begin
        let bigger = Bytes.create (2 * Bytes.length c.inbuf) in
        Bytes.blit c.inbuf 0 bigger 0 c.in_len;
        c.inbuf <- bigger
      end;
      match Unix.read c.fd c.inbuf c.in_len (Bytes.length c.inbuf - c.in_len) with
      | 0 -> close c
      | n -> (
          let from = c.in_len in
          c.in_len <- c.in_len + n;
          match Bytes.index_from_opt c.inbuf from '\n' with
          | Some nl when nl < c.in_len ->
              answer := Some (Bytes.sub_string c.inbuf 0 nl);
              (* One request outstanding: nothing follows its response. *)
              c.in_len <- 0
          | _ -> ())
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> close c
    end
  done;
  !answer

(* Read one counter or histogram field out of a metrics dump. *)
let metric_value dump ~kind ~name ~field =
  String.split_on_char '\n' dump
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | k :: n :: rest when k = kind && n = name -> (
             match (field, rest) with
             | None, [ v ] -> float_of_string_opt v
             | Some f, fields ->
                 List.find_map
                   (fun kv ->
                     match String.split_on_char '=' kv with
                     | [ key; v ] when key = f -> float_of_string_opt v
                     | _ -> None)
                   fields
             | None, _ -> None)
         | _ -> None)

let scrape c =
  match request c "{\"id\":\"scrape\",\"op\":\"metrics\"}" ~timeout_s:5.0 with
  | None -> None
  | Some line -> (
      match Estima_service.Json.parse line with
      | Ok json -> Option.bind (Estima_service.Json.member "metrics" json) Estima_service.Json.to_string_opt
      | Error _ -> None)
