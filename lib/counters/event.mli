(** Hardware performance-counter events.

    The backend-stall event sets of the paper: Table 2 for AMD Family 10h
    (Opteron) and Table 3 for recent Intel processors, plus one frontend
    event per vendor for the Section 5.2 ablation.  The simulator's
    physical stall causes are attributed onto these events by a
    per-vendor weight matrix whose rows sum to 1 — each stalled cycle is
    observed by exactly one (fractional combination of) counter(s), the
    way non-overlapping fine-grain events behave. *)

type t = {
  code : string;  (** Vendor event code, e.g. "0D8h" or "01A2h". *)
  description : string;
  vendor : Estima_machine.Topology.vendor;
  frontend : bool;
}

val amd_frontend : t
val intel_frontend : t

val find : Estima_machine.Topology.vendor -> string -> t option

val attribute_ledger :
  Estima_machine.Topology.vendor -> Estima_sim.Ledger.t -> (string * float) list
(** Full counter readout for one run: every event of the vendor (frontend
    included) with its attributed cycle count: the backend events in
    table order (Table 2 for AMD: 0D2h, 0D5h, 0D6h, 0D7h, 0D8h; Table 3
    for Intel: 0487h, 01A2h, 04A2h, 08A2h, 10A2h), then the frontend
    event.  Each hardware stall cause is split over the events observing
    it by weights that sum to 1, so the readout conserves the ledger's
    hardware cycles; software causes are not observed. *)
