type gate =
  | Fit_failed
  | Non_finite
  | Realism
  | Growth_cap
  | Slope
  | Factor_range
  | Tie_break

let gate_to_string = function
  | Fit_failed -> "fit-failed"
  | Non_finite -> "non-finite"
  | Realism -> "realism"
  | Growth_cap -> "growth-cap"
  | Slope -> "slope"
  | Factor_range -> "factor-range"
  | Tie_break -> "tie-break"

type verdict = Accepted | Rejected of gate

type fit_status =
  | Fitted of { rmse : float; lm_converged : bool }
  | Not_applicable
  | No_guesses
  | Diverged

type payload =
  | Fit_attempt of { kernel : string; points : int; status : fit_status }
  | Candidate of {
      stage : string;
      subject : string;
      kernel : string;
      prefix : int;
      verdict : verdict;
      score : float;
      detail : string;
    }
  | Decision of {
      stage : string;
      subject : string;
      incumbent : string;
      challenger : string;
      winner : string;
      rule : string;
      detail : string;
    }
  | Winner of {
      stage : string;
      subject : string;
      kernel : string;
      prefix : int;
      score : float;
      correlation : float;
    }
  | Note of { stage : string; subject : string; text : string }
  | Diagnostic of { stage : string; subject : string; cause : string; detail : string }

type event = { seq : int; at_ns : int64; span : string list; payload : payload }

type sink = {
  on_event : event -> unit;
  on_span : path:string list -> elapsed_ns:int64 -> unit;
}

let stall_stage = "stall-fit"

let factor_stage = "factor-fit"

let factor_subject = "scaling-factor"

let default_clock = Clock.now_ns

(* All trace state is domain-local, so each domain carries its own sink,
   sequence counter and span stack, and a fresh domain starts with
   tracing disabled.  The parallel fan-out (Estima_par) runs every task
   on the calling domain while a sink is installed, which is what keeps
   traces byte-identical to the sequential pipeline.  The
   disabled-tracing cost is one DLS load and a branch. *)
type state = {
  mutable sink : sink option;
  mutable seq : int;
  mutable spans : string list;  (* innermost first (reversed on export) *)
  mutable clock : unit -> int64;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { sink = None; seq = 0; spans = []; clock = default_clock })

let state () = Domain.DLS.get state_key

let enabled () = (state ()).sink <> None

(* Installing an outermost sink restarts the sequence numbering: every
   top-level recording session sees events 1..n, so recording the same
   computation twice — at any jobs setting — yields byte-identical
   traces.  Swapping sinks mid-session (e.g. the recorder teeing into an
   outer sink) keeps the counter running. *)
let set_sink s =
  let st = state () in
  (match (st.sink, s) with None, Some _ -> st.seq <- 0 | _ -> ());
  st.sink <- s

let current_sink () = (state ()).sink

let span_path () = List.rev (state ()).spans

let set_clock f = (state ()).clock <- f

let emit payload =
  let st = state () in
  match st.sink with
  | None -> ()
  | Some s ->
      st.seq <- st.seq + 1;
      s.on_event { seq = st.seq; at_ns = st.clock (); span = span_path (); payload }

let with_span name f =
  let st = state () in
  match st.sink with
  | None -> f ()
  | Some _ ->
      st.spans <- name :: st.spans;
      let path = span_path () in
      let t0 = st.clock () in
      let close () =
        let elapsed_ns = Int64.sub (st.clock ()) t0 in
        (match st.spans with _ :: rest -> st.spans <- rest | [] -> ());
        (* The sink may have changed (or vanished) while the span was
           open; report to whoever is installed at close time. *)
        match st.sink with None -> () | Some s -> s.on_span ~path ~elapsed_ns
      in
      (match f () with
      | v ->
          close ();
          v
      | exception e ->
          close ();
          raise e)
