(** Text and JSON renderers for traces, audits, span timings and counters.

    The JSON renderer builds {!Estima_json.Json} values, so a trace is
    escaped and printed exactly like the wire protocol and the golden
    files: non-finite floats render as [null]. *)

val pp_audit : Format.formatter -> Audit.t -> unit
(** Per-subject detail: the winner line followed by every candidate with
    its verdict (and rejection gate), score and explanation. *)

val pp_events : Format.formatter -> Trace.event list -> unit
(** Flat chronological event listing. *)

val pp_recorder : Format.formatter -> Recorder.t -> unit
(** The full text report: audit, span timings, counters. *)

val json_of_recorder : Recorder.t -> string
(** One JSON object: [{"events": [...], "audit": [...], "spans": [...],
    "counters": {...}}]. *)
