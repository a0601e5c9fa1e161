(** The four machines of the paper's evaluation (Sections 4.2 and 5.1).

    Timing parameters are plausible published figures for each platform;
    ESTIMA never sees them directly — it only sees the counters the
    simulator produces — so shape fidelity, not cycle-exactness, is what
    matters. *)

val haswell_desktop : Topology.t
(** Intel Core i7 Haswell: 1 socket, 4 cores, SMT2 (8 threads), 3.4 GHz.
    The measurements machine for the production-application experiments. *)

val opteron48 : Topology.t
(** Four AMD Opteron 6172 packages, each a 2-chip MCM with 6 cores per
    chip: 48 cores, 2.1 GHz.  Intra-socket NUMA (Section 5.5). *)

val xeon20 : Topology.t
(** Two Intel Xeon E5-2680 v2, 10 cores each, SMT2 (40 threads), 2.8 GHz.
    Classic two-socket NUMA. *)

val xeon48 : Topology.t
(** Four Intel Xeon E7-4830 v3, 12 cores each: 48 cores (Section 5.1). *)

val all : Topology.t list

val find : string -> Topology.t option
(** Lookup by name ("haswell", "opteron48", "xeon20", "xeon48"), or by
    the name {!restrict_sockets} gives a part of one ("opteron48/1s"), so
    every machine's name is a valid [--machine]. *)

val restrict_sockets : Topology.t -> sockets:int -> Topology.t
(** A measurements machine carved out of a larger one: same per-socket
    layout and timing, fewer sockets.  Raises [Invalid_argument] when
    [sockets] exceeds the machine or is non-positive. *)
