type span_stat = { path : string list; count : int; total_ns : int64 }

type t = { mutable events_rev : Trace.event list; spans : (string list, span_stat) Hashtbl.t }

let create () = { events_rev = []; spans = Hashtbl.create 16 }

let sink t =
  {
    Trace.on_event = (fun e -> t.events_rev <- e :: t.events_rev);
    on_span =
      (fun ~path ~elapsed_ns ->
        let prev =
          match Hashtbl.find_opt t.spans path with
          | Some s -> s
          | None -> { path; count = 0; total_ns = 0L }
        in
        Hashtbl.replace t.spans path
          { prev with count = prev.count + 1; total_ns = Int64.add prev.total_ns elapsed_ns });
  }

let events t = List.rev t.events_rev

let counters t =
  let attempts = ref 0 and failed = ref 0 and converged = ref 0 and unconverged = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.payload with
      | Trace.Fit_attempt { status; _ } -> (
          incr attempts;
          match status with
          | Trace.Fitted { lm_converged = true; _ } -> incr converged
          | Trace.Fitted _ -> incr unconverged
          | Trace.Not_applicable | Trace.No_guesses | Trace.Diverged -> incr failed)
      | _ -> ())
    t.events_rev;
  List.filter
    (fun (_, n) -> n > 0)
    [
      ("fit.attempts", !attempts);
      ("fit.failed", !failed);
      ("fit.lm-converged", !converged);
      ("fit.lm-unconverged", !unconverged);
    ]

let span_stats t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.spans []
  |> List.sort (fun a b -> Int64.compare b.total_ns a.total_ns)

let tee a b =
  {
    Trace.on_event =
      (fun e ->
        a.Trace.on_event e;
        b.Trace.on_event e);
    on_span =
      (fun ~path ~elapsed_ns ->
        a.Trace.on_span ~path ~elapsed_ns;
        b.Trace.on_span ~path ~elapsed_ns);
  }

let record t f =
  let previous = Trace.current_sink () in
  let mine = sink t in
  Trace.set_sink (Some (match previous with None -> mine | Some outer -> tee mine outer));
  let restore () = Trace.set_sink previous in
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e
