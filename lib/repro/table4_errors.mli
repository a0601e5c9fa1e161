(** Table 4: maximum prediction errors for the 19 benchmark workloads.

    Opteron: measure one processor (12 cores), predict for 2, 3 and 4
    processors; Xeon20: measure one socket (10 cores), predict the full
    machine.  Errors are the maximum relative deviation of predicted from
    measured execution time over the extrapolated region up to each target
    size, with the summary statistics the paper prints (average, standard
    deviation, maximum). *)

type row = {
  name : string;
  family : string;
  opteron_2cpu : float;
  opteron_3cpu : float;
  opteron_4cpu : float;
  xeon20_2cpu : float;
  opteron_agrees : bool;  (** Scalability-verdict agreement on the full Opteron. *)
  xeon20_agrees : bool;
}

type summary = { average : float; std_dev : float; maximum : float }

type result = {
  rows : row list;
  opteron_4cpu_summary : summary;
  xeon20_summary : summary;
}

val compute : unit -> result

val run : unit -> unit
