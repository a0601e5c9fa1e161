(* Clock, scratch space and process statistics for the benchmark. *)

let now_ns = Monotonic_clock.now

let now () = Int64.to_float (now_ns ()) *. 1e-9

(* The calling thread's CPU clock, in ns.  On a virtual machine whose
   kernel accounts steal time, it leaves out the time the host gave the
   core to another guest; wall time includes it. *)
external cpu_ns : unit -> int64 = "perfbench_thread_cpu_ns"

(* Run [f] and return its result with its time on [clock] (wall time by
   default) in nanoseconds. *)
let timed ?(clock = now_ns) f =
  let t0 = clock () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (clock ()) t0))

(* Words allocated by the calling domain so far.  Only meaningful while
   no other domain allocates on our behalf, i.e. at jobs 1. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Scratch space lives inside the checkout the benchmark runs from, one
   directory per process, removed when the run ends. *)
let scratch_root = ".perfbench-tmp"

let scratch =
  lazy
    (let dir =
       Filename.concat (Filename.concat (Sys.getcwd ()) scratch_root) (string_of_int (Unix.getpid ()))
     in
     mkdir_p dir;
     at_exit (fun () ->
         remove_tree dir;
         (* The parent goes too once no concurrent run still uses it. *)
         try Sys.rmdir (Filename.dirname dir) with Sys_error _ -> ());
     dir)

let scratch_dir name =
  let dir = Filename.concat (Lazy.force scratch) name in
  remove_tree dir;
  mkdir_p dir;
  dir

(* Read to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

(* Nanoseconds of CPU time the main thread of process [pid] has used: the
   first field of /proc/PID/schedstat, the count the thread CPU clock
   reads too. *)
let process_cpu_ns pid =
  let stat = read_file (Printf.sprintf "/proc/%d/schedstat" pid) in
  match Scanf.sscanf_opt stat "%Ld" Fun.id with
  | Some ns -> ns
  | None -> failwith ("unreadable schedstat: " ^ stat)

(* Peak resident set size (VmHWM) of [pid], or of this process, in MB. *)
let peak_rss_mb ?pid () =
  let path = match pid with Some p -> Printf.sprintf "/proc/%d/status" p | None -> "/proc/self/status" in
  match read_file path with
  | exception Sys_error _ -> Float.nan
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; rest ] ->
                 Scanf.sscanf_opt (String.trim rest) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:Float.nan

let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")
