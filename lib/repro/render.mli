(** Text rendering for the reproduction harness: aligned tables and
    numbered series, printed to stdout the way the paper's tables and
    figure data would be tabulated.

    All output flows through a domain-local sink ({!print_string}), so a
    parallel [Repro.All.run_all] can run experiments concurrently on the
    domain pool, capture each one's output with {!with_capture}, and
    print the buffers in submission order — byte-identical to the
    sequential run.  Experiment code must therefore print through this
    module ({!printf} / {!print_string}), never [Printf.printf]. *)

val print_string : string -> unit
(** Write to the current domain's sink: stdout by default, or the
    innermost {!with_capture} buffer. *)

val printf : ('a, unit, string, unit) format4 -> 'a
(** [Printf.printf] through the sink.  [%!] is accepted but only flushes
    when writing to real stdout. *)

val flush_out : unit -> unit
(** Flush stdout; a no-op while capturing. *)

val with_capture : (unit -> 'a) -> 'a * string
(** [with_capture f] runs [f] with the current domain's renderer output
    redirected into a fresh buffer, and returns [f]'s result together
    with everything it printed.  Nests; restores the previous sink on
    return or raise. *)

val heading : string -> unit
(** Bannered section title, e.g. ["[T4] Table 4 - ..."]. *)

val subheading : string -> unit

val table : header:string list -> rows:string list list -> unit
(** Column-aligned table.  Raises [Invalid_argument] on ragged rows. *)

val series : title:string -> grid:float array -> columns:(string * float array) list -> unit
(** Prints one row per grid point with each named column; columns must
    match the grid length. *)

val audit_summary : Estima_obs.Audit.t -> unit
(** One row per audited subject (stall category / scaling factor): the
    winning (kernel, prefix), its score and correlation, the number of
    candidates considered and the per-gate rejection tally.  The detail
    behind every reproduced figure's kernel choices. *)

val pct : float -> string
(** [pct 0.123] is ["12.3%"]. *)

val float3 : float -> string
(** Three significant digits. *)

val verdict : Estima.Diag.Quality.verdict -> string
