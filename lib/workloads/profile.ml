open Estima_sim

let make ~name ?(total_ops = 48_000) ?(private_footprint_lines = 2048)
    ?(shared_footprint_lines = 8192) ?(useful_cycles = 400.0) ?(useful_cv = 0.08) ?(mem_reads = 4)
    ?(mem_writes = 1) ?(shared_fraction = 0.1) ?(write_shared_fraction = 0.1) ?(fp_fraction = 0.0)
    ?(dependency_factor = 0.1) ?(branch_mpki = 1.0) ?(frontend_cycles = 5.0) ?(sync = Spec.No_sync)
    ?barrier_every ?(barrier_kind = Spec.Mutex) () =
  let spec =
    {
      Spec.name;
      total_ops;
      private_footprint_lines;
      shared_footprint_lines;
      op =
        {
          Spec.useful_cycles;
          useful_cv;
          mem_reads;
          mem_writes;
          shared_fraction;
          write_shared_fraction;
          fp_fraction;
          dependency_factor;
          branch_mpki;
          frontend_cycles;
          sync;
          barrier_every;
          barrier_kind;
        };
    }
  in
  match Spec.validate spec with
  | Ok () -> spec
  | Error e -> invalid_arg ("Profile.make: " ^ e)
