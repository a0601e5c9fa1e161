(** Differential testing of the three prediction surfaces.

    The repo's core serving claim is that [estima_cli predict --from], a
    direct {!Estima.Api.predict}, and a round trip through [estima_serve]
    produce {e byte-identical} prediction text for the same CSV — the
    three render through {!Estima.Api}'s renderers by construction; this
    module proves it stays true, for every corpus workload, under both a
    sequential and a parallel fit search.

    {!run} writes each source's measurement window to a CSV file in a
    work directory of its own, then for every jobs setting computes the
    prediction text three ways — in-process through the Api, by spawning
    the CLI binary, and by piping NDJSON predict requests through one
    [estima_serve] stdio process — compares the three texts byte for
    byte, and removes the work directory.  It has no knobs: the
    binaries, the jobs settings and the directory are its own. *)

type observation = {
  workload : string;
  jobs : int;
  api : string;  (** {!Estima.Api.render_text} of an in-process prediction. *)
  cli : string;  (** Captured [estima_cli predict --from] stdout. *)
  server : string;  (** Reassembled from the NDJSON response members. *)
}

val run : Backtest.source list -> (observation list, string list) result
(** Execute the differential over every source at jobs 1 and 4, the
    two settings CI runs the test suite under.  The CSV inputs ([<name>.csv]) are written to a fresh
    directory [estima_validate_<pid>_*] under the temporary directory,
    which is removed with them on return, on success and on error alike.
    The binaries are ["estima_cli.exe"] and ["estima_serve.exe"] in the
    running executable's [../bin] directory — the layout of a dune build
    tree.  [Ok] returns every observation (all three texts equal,
    non-empty); [Error] lists one human-readable line per mismatch or
    process failure.  The global {!Estima_par.Fanout} jobs setting is
    restored on exit. *)

val first_divergence : string -> string -> string
(** Human rendering of where two supposedly identical texts diverge:
    the 1-based line number and both lines (or a length difference).
    Used in mismatch messages; exposed for tests. *)
