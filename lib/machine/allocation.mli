(** Core placement policy.

    ESTIMA "discovers the topology of the cores and uses cores within the
    same socket first" (Section 4.1): threads are packed chip by chip,
    socket by socket, filling one SMT thread per physical core before
    doubling up. *)

val place : Topology.t -> threads:int -> Topology.location array
(** [place machine ~threads] returns one location per software thread, in
    placement order.  Raises [Invalid_argument] when [threads] is
    non-positive or exceeds the machine's hardware threads. *)

val sockets_used : Topology.location array -> int
