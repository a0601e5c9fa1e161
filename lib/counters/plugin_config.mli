(** Plugin configuration files (paper Section 4.1).

    "estima takes a configuration file that includes the path to the file
    the stalls are reported in (including special files like stdout or
    stderr), as well as the expression that is used to report the cycles.
    estima can apply a function to the collected values (e.g., min, max,
    sum, average)."

    The format is line-oriented, one field per line, [#] comments, one or
    more plugin stanzas separated by blank lines:

    {v
    # aborted transactions from the SwissTM statistics
    name       stm-abort
    source     stm.stats            # or: stdout / stderr
    expression stm-abort-cycles %d
    combine    sum
    v}

    Parsed plugins are resolved against {!Report_file.scan}: the expression
    extracts one value per thread from the runtime's report, and the
    combine function folds them into the category value. *)

type entry = {
  name : string;
  source : string;  (** Report file path, or "stdout"/"stderr". *)
  expression : string;  (** A single-[%d] pattern for {!Report_file.scan}. *)
  combine : Plugin.combine;
}

val load : path:string -> (entry list, string) result
(** Read and parse a configuration file.  Errors name the offending
    line. *)

val apply : entry -> report:string -> float
(** Extract the entry's values from a report and combine them.  Returns 0
    when nothing matches (a silent runtime reported no stalls). *)
