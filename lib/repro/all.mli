(** Run every reproduction in paper order. *)

val experiments : (string * (unit -> unit)) list
(** [(id, run)] for each table/figure plus the ablations. *)

val run_many : (string * (unit -> unit)) list -> unit
(** Run the given experiments in order.  With
    {!Estima_par.Fanout.jobs}[ () > 1] they run concurrently on the
    domain pool, each one's output captured and printed in submission
    order — stdout is byte-identical to the sequential run.  With
    jobs = 1, output streams as each experiment runs. *)

val run_all : unit -> unit
(** [run_many experiments]. *)

val resolve : string list -> ((string * (unit -> unit)) list, string) result
(** The experiments named by [ids] (e.g. ["T4"; "f8"], looked up by
    id case-insensitively), in the given order, ready for {!run_many};
    nothing runs.
    [Error] names the first unknown id and lists the valid ones. *)
