(** Runtime report files.

    The paper's software-stall plugins read cycles from the files (or
    stdout/stderr) that an instrumented runtime writes.  This module is
    both sides of that loop for the simulated substrate: {!render} writes
    the per-thread report a SwissTM- or pthread-wrapper-instrumented run
    would produce, and {!scan} extracts values back out of any such text
    with a simple expression, the way ESTIMA's plugin configuration
    specifies. *)

val render : Estima_sim.Engine.result -> string
(** The textual report of one run: one line per thread per software stall
    source, e.g. ["thread 3 stm-abort-cycles 182736"], plus a header.  This
    is what the simulated runtime "writes to its statistics file". *)

val scan : expression:string -> string -> float list
(** [scan ~expression text] returns every number captured by [expression]
    in [text], in order.  The expression is the paper's simple pattern
    syntax: literal text with a single [%d] marking where the value is,
    e.g. ["stm-abort-cycles %d"].  Matching is per line, and a line
    holding several matches yields all of them, left to right; raises
    [Invalid_argument] if the expression contains no (or several) [%d]. *)
