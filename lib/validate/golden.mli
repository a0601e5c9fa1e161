(** The golden accuracy corpus under [test/golden/]: blessed per-workload
    reports plus a corpus summary, stored as pretty-printed canonical
    JSON ({!Report.to_json}, {!Report.summary_to_json}) so accuracy drift
    shows up as a reviewable diff.

    A golden file is never decoded back into a record: it is parsed as
    {!Estima_json.Json.t} and diffed against the fresh run's own JSON.
    Two numbers agree when they differ by at most 0.01 (one percentage
    point of relative error), so integers agree only when equal;
    [per_point] curves are informational and never compared; every other
    value, the verdicts and the protocol included, must be equal.  A
    missing golden file is a
    mismatch telling the developer to run the bless flow, never an
    auto-pass. *)

val workload_file : dir:string -> string -> string
(** [dir/<workload>.json]. *)

val summary_file : dir:string -> string
(** [dir/summary.json]. *)

val bless : dir:string -> Report.t list -> Report.summary -> string list
(** Write (or overwrite) every golden file for the run; creates [dir] if
    needed.  Returns the paths written. *)

val load : string -> (Estima_json.Json.t, string) result
(** Read and parse one golden file; the error names the file (and says
    how to bless it when it is missing). *)

val diff : golden:Estima_json.Json.t -> Estima_json.Json.t -> string list
(** One line per disagreement between a golden document and a fresh one,
    each naming its path (["errors.max: golden …, got …"]); a member
    present on one side only reads ["missing"] on the other.  Empty
    means within tolerance. *)

val compare_run : dir:string -> Report.t list -> Report.summary option -> string list
(** Diff every fresh report against [dir]'s golden files — and, when a
    summary is given (full-corpus runs), the fresh summary against
    [summary.json].  Subset runs pass [None]: their aggregate covers
    fewer workloads than the blessed corpus, so only the per-workload
    files are meaningful.  Every mismatch line is prefixed with the
    workload (or ["summary"]) it belongs to. *)
