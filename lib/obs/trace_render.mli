(** Text and JSON renderers for traces, audits, span timings and counters.

    The JSON renderer builds {!Estima_json.Json} values, so a trace is
    escaped and printed exactly like the wire protocol and the golden
    files: non-finite floats render as [null]. *)

val pp_recorder : Format.formatter -> Recorder.t -> unit
(** The full text report: audit, span timings, counters. *)

val json_of_recorder : Recorder.t -> string
(** One JSON object: [{"events": [...], "audit": [...], "spans": [...],
    "counters": {...}}]. *)
