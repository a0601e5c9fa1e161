let time_scale ~measured_on ~target =
  measured_on.Topology.frequency_ghz /. target.Topology.frequency_ghz
