open Estima_machine
open Estima_sim

type t = { code : string; description : string; vendor : Topology.vendor; frontend : bool }

let amd code description = { code; description; vendor = Topology.Amd; frontend = false }

let intel code description = { code; description; vendor = Topology.Intel; frontend = false }

let amd_backend =
  [
    amd "0D2h" "Dispatch Stall for Branch Abort to Retire";
    amd "0D5h" "Dispatch Stall for Reorder Buffer Full";
    amd "0D6h" "Dispatch Stall for Reservation Station Full";
    amd "0D7h" "Dispatch Stall for FPU Full";
    amd "0D8h" "Dispatch Stall for LS Full";
  ]

let intel_backend =
  [
    intel "0487h" "Stalled cycles due to IQ full";
    intel "01A2h" "Cycles allocation stalled due to resource-related reasons";
    intel "04A2h" "No eligible RS entry available";
    intel "08A2h" "No store buffers available";
    intel "10A2h" "Re-order buffer full";
  ]

let amd_frontend =
  { code = "0D0h"; description = "Decoder Empty"; vendor = Topology.Amd; frontend = true }

let intel_frontend =
  { code = "0280h"; description = "ICACHE.IFETCH_STALL"; vendor = Topology.Intel; frontend = true }

let backend_events = function Topology.Amd -> amd_backend | Topology.Intel -> intel_backend

(* Backend plus the frontend event. *)
let all_events vendor =
  backend_events vendor @ [ (match vendor with Topology.Amd -> amd_frontend | Topology.Intel -> intel_frontend) ]

let find vendor code = List.find_opt (fun e -> String.equal e.code code) (all_events vendor)

(* Attribution matrices.  Rows (causes) sum to 1.0 so no cycle is counted
   by two events — the paper discards significantly-overlapping events. *)
let attribution vendor cause =
  match (vendor, cause) with
  | Topology.Amd, Stall.Miss_private -> [ ("0D8h", 1.0) ]
  | Topology.Amd, Stall.Miss_memory -> [ ("0D8h", 0.7); ("0D5h", 0.3) ]
  | Topology.Amd, Stall.Memory_queue -> [ ("0D8h", 0.7); ("0D5h", 0.3) ]
  | Topology.Amd, Stall.Coherence -> [ ("0D8h", 0.8); ("0D5h", 0.2) ]
  | Topology.Amd, Stall.Dependency -> [ ("0D6h", 0.9); ("0D5h", 0.1) ]
  | Topology.Amd, Stall.Fp_pressure -> [ ("0D7h", 1.0) ]
  | Topology.Amd, Stall.Branch_recovery -> [ ("0D2h", 1.0) ]
  | Topology.Amd, Stall.Frontend -> [ ("0D0h", 1.0) ]
  | Topology.Intel, Stall.Miss_private -> [ ("10A2h", 0.5); ("01A2h", 0.5) ]
  | Topology.Intel, Stall.Miss_memory -> [ ("10A2h", 0.7); ("01A2h", 0.3) ]
  | Topology.Intel, Stall.Memory_queue -> [ ("10A2h", 0.6); ("01A2h", 0.4) ]
  | Topology.Intel, Stall.Coherence -> [ ("08A2h", 0.7); ("01A2h", 0.3) ]
  | Topology.Intel, Stall.Dependency -> [ ("04A2h", 0.9); ("0487h", 0.1) ]
  | Topology.Intel, Stall.Fp_pressure -> [ ("04A2h", 1.0) ]
  | Topology.Intel, Stall.Branch_recovery -> [ ("0487h", 1.0) ]
  | Topology.Intel, Stall.Frontend -> [ ("0280h", 1.0) ]
  | _, (Stall.Lock_spin | Stall.Barrier_wait | Stall.Stm_abort) -> []

let attribute_ledger vendor ledger =
  let events = all_events vendor in
  let totals = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace totals e.code 0.0) events;
  List.iter
    (fun cause ->
      let cycles = Ledger.get ledger cause in
      if cycles > 0.0 then
        List.iter
          (fun (code, weight) ->
            Hashtbl.replace totals code (Hashtbl.find totals code +. (weight *. cycles)))
          (attribution vendor cause))
    Stall.all;
  List.map (fun e -> (e.code, Hashtbl.find totals e.code)) events
