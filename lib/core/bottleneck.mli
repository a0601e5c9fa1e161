(** Future-bottleneck identification (paper Section 4.6).

    Rank the extrapolated stall categories at the target core count and
    map the dominant software categories to the code sites the paper's
    perf step would surface.  Not a replacement for dedicated profilers —
    exactly as the paper says — but enough to point a developer at the
    synchronisation construct that will dominate at scale. *)

type finding = {
  category : string;
  share_now : float;  (** Share of total stalls at the measurement window. *)
  share_at_target : float;  (** Share at the target core count. *)
  hint : string option;
      (** Code-site hint for software categories, e.g. the paper's
          pthread_mutex_trylock finding for streamcluster. *)
}

type t = {
  findings : finding list;  (** Sorted by share at target, descending. *)
  target : int;
  window : int;
}

val analyze : Predictor.t -> t
(** Uses the predictor's per-category fits. *)

val hint_for : string -> string option
(** The built-in code-site hints table, exposed for tests. *)

val pp : Format.formatter -> t -> unit
