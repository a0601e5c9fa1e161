(* Spans the benchmark records around its own calls into the program's
   public functions — nothing inside the program is instrumented.  Each
   span has a name, start and end on the monotonic clock, the span that
   caused it and a request id shared by every span of one operation.
   Spans stay in memory and are written out when the run ends; a span's
   self time is its duration minus the part its child spans cover.

   A disabled recorder (the untraced run) runs the wrapped function and
   nothing else, so end-to-end numbers are measured without tracing. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span. *)
  req : int;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  enabled : bool;
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : (int * int) list;  (** Open spans: (id, request id). *)
}

let create ~enabled = { enabled; spans = []; next_id = 0; stack = [] }

let now () = Monotonic_clock.now ()

let with_span t ?req name f =
  if not t.enabled then f ()
  else begin
    let parent, parent_req = match t.stack with (p, r) :: _ -> (p, r) | [] -> (-1, 0) in
    let req = Option.value req ~default:parent_req in
    let id = t.next_id in
    t.next_id <- id + 1;
    t.stack <- (id, req) :: t.stack;
    let start_ns = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = now () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; name; parent; req; start_ns; stop_ns } :: t.spans)
      f
  end

let duration s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

type stat = {
  name : string;
  count : int;
  total_ns : float;
  self_ns : float;
  durations_ns : float list;
}

(* Per-name aggregates in first-recorded order.  Children run inside
   their parent on one thread, so the part of a parent they cover is the
   sum of their durations. *)
let stats t =
  let spans = List.rev t.spans in
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  let order = ref [] in
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
      match Hashtbl.find_opt by_name s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.replace by_name s.name
            { name = s.name; count = 1; total_ns = duration s; self_ns = self; durations_ns = [ duration s ] }
      | Some st ->
          Hashtbl.replace by_name s.name
            {
              st with
              count = st.count + 1;
              total_ns = st.total_ns +. duration s;
              self_ns = st.self_ns +. self;
              durations_ns = duration s :: st.durations_ns;
            })
    spans;
  List.rev_map (Hashtbl.find by_name) !order

let find stats name = List.find_opt (fun (s : stat) -> String.equal s.name name) stats

(* Median duration of the spans called [name], in [scale] units of a
   nanosecond (1e3 for µs, 1e6 for ms); 0 when no such span ran. *)
let median_of stats name ~scale =
  match find stats name with
  | Some s -> Stats.median s.durations_ns /. scale
  | None -> 0.0

let count t = List.length t.spans

let write_out t =
  let stats = stats t in
  Printf.printf "spans: %d recorded\n" (count t);
  List.iter
    (fun s ->
      Printf.printf "  span %-28s count=%-6d total_ms=%.3f self_ms=%.3f p50_us=%.1f\n" s.name
        s.count (s.total_ns /. 1e6) (s.self_ns /. 1e6)
        (Stats.median s.durations_ns /. 1e3))
    stats

(* What recording one span costs, measured on this host: the basis of
   the traced run's overhead ratio. *)
let cost_ns () =
  let t = create ~enabled:true in
  let n = 20_000 in
  let t0 = now () in
  for _ = 1 to n do
    with_span t "probe" ignore
  done;
  Int64.to_float (Int64.sub (now ()) t0) /. float_of_int n
