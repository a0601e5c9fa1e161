(** Load-run reports, rendered straight from a {!Generator.plan} and the
    {!Driver.outcome} of playing it; {!Driver.clean} is the verdict.

    The report separates what is deterministic from what is timing.  The
    deterministic summary depends only on the plan and the correctness
    counters — request counts per kind, stream bytes,
    matched/mismatched/timed-out totals — so two runs of the same seed
    must render it identically, whatever the scheduler did; that is the
    byte-equality the determinism tests assert.  Throughput
    ([received / elapsed_s]) and the latency quantiles (p50/p90/p99 and
    the exact max, read from one histogram snapshot) follow it in
    {!to_text} and {!to_json}. *)

val to_text : Generator.plan -> Driver.outcome -> string
(** Human-readable report: the deterministic summary plus throughput,
    latency quantiles and the first mismatches. *)

val to_json : Generator.plan -> Driver.outcome -> string
(** One-line JSON object with the same content as {!to_text} (without
    the mismatches) and the {!Driver.clean} verdict under ["clean"],
    latencies in seconds under ["latency"] with
    [p50]/[p90]/[p99]/[max]. *)
