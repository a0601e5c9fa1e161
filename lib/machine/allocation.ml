open Topology

let place machine ~threads =
  if threads <= 0 then invalid_arg "Allocation.place: non-positive thread count";
  if threads > hardware_threads machine then
    invalid_arg
      (Printf.sprintf "Allocation.place: %d threads exceed %d hardware threads of %s" threads
         (hardware_threads machine) machine.name);
  (* Enumerate physical cores socket-first, then cycle over SMT threads: all
     cores at SMT slot 0 first, then slot 1, matching how a pinned run fills
     a machine before hyperthread pairs share a core. *)
  let physical = cores machine in
  Array.init threads (fun i ->
      let smt_slot = i / physical in
      let linear = i mod physical in
      let socket = linear / cores_per_socket machine in
      let within_socket = linear mod cores_per_socket machine in
      let chip = within_socket / machine.cores_per_chip in
      let core = within_socket mod machine.cores_per_chip in
      { socket; chip; core; thread = smt_slot })

let sockets_used placement =
  placement |> Array.to_list |> List.map (fun l -> l.socket) |> List.sort_uniq compare |> List.length
