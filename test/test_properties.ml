(* Property-based tests (qcheck) on the numerics, kernels, simulator and
   pipeline invariants. *)

open Estima_numerics
open Estima_kernels
open Estima_sim
open Estima_machine

let count = 100

let to_alcotest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Numerics                                                            *)
(* ------------------------------------------------------------------ *)

let finite_float = QCheck.float_range (-1e6) 1e6

let nonempty_vec = QCheck.(list_of_size Gen.(int_range 1 20) finite_float)

let prop_vec_add_commutes =
  QCheck.Test.make ~count ~name:"vec add commutes"
    QCheck.(pair nonempty_vec nonempty_vec)
    (fun (a, b) ->
      let n = min (List.length a) (List.length b) in
      QCheck.assume (n > 0);
      let a = Array.of_list (List.filteri (fun i _ -> i < n) a) in
      let b = Array.of_list (List.filteri (fun i _ -> i < n) b) in
      Vec.add a b = Vec.add b a)

let prop_dot_linear =
  QCheck.Test.make ~count ~name:"dot is linear in scaling"
    QCheck.(pair (float_range (-100.0) 100.0) nonempty_vec)
    (fun (s, xs) ->
      let v = Array.of_list xs in
      let lhs = Vec.dot (Vec.scale s v) v in
      let rhs = s *. Vec.dot v v in
      Float.abs (lhs -. rhs) <= 1e-6 *. Float.max 1.0 (Float.abs rhs))

let prop_mean_bounds =
  QCheck.Test.make ~count ~name:"mean within min..max" nonempty_vec (fun xs ->
      let v = Array.of_list xs in
      let m = Stats.mean v in
      m >= Vec.min_elt v -. 1e-9 && m <= Vec.max_elt v +. 1e-9)

let prop_pearson_bounded =
  QCheck.Test.make ~count ~name:"pearson in [-1,1]"
    QCheck.(pair (list_of_size Gen.(int_range 2 20) finite_float) (list_of_size Gen.(int_range 2 20) finite_float))
    (fun (a, b) ->
      let n = min (List.length a) (List.length b) in
      QCheck.assume (n >= 2);
      let a = Array.of_list (List.filteri (fun i _ -> i < n) a) in
      let b = Array.of_list (List.filteri (fun i _ -> i < n) b) in
      let r = Stats.pearson a b in
      Float.is_nan r || (r >= -1.0 -. 1e-9 && r <= 1.0 +. 1e-9))

let prop_quantile_monotone =
  QCheck.Test.make ~count ~name:"quantile monotone in q" nonempty_vec (fun xs ->
      let v = Array.of_list xs in
      Stats.quantile 0.25 v <= Stats.quantile 0.75 v +. 1e-9)

let prop_rng_int_range =
  QCheck.Test.make ~count ~name:"rng int stays in range"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_qr_solves_spd_systems =
  (* Random well-conditioned systems: QR must invert them. *)
  QCheck.Test.make ~count:50 ~name:"qr solves diagonally dominant systems"
    QCheck.(list_of_size (Gen.return 9) (float_range (-1.0) 1.0))
    (fun cells ->
      let a = Mat.init 3 3 (fun i j -> List.nth cells ((3 * i) + j) +. if i = j then 5.0 else 0.0) in
      let x = [| 1.0; -2.0; 3.0 |] in
      let b = Mat.mul_vec a x in
      let solved = Qr.solve_square a b in
      Vec.norm_inf (Vec.sub solved x) < 1e-8)

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

let kernel_gen = QCheck.oneofl Catalogue.all

let prop_kernel_gradient_matches_fd =
  QCheck.Test.make ~count:50 ~name:"kernel gradients match finite differences"
    QCheck.(pair kernel_gen (int_range 1 40))
    (fun (kernel, cores) ->
      (* Mild parameters keep every kernel finite at x. *)
      let x = float_of_int cores in
      let params = Array.init kernel.Kernel.arity (fun i -> 0.5 /. float_of_int (i + 1)) in
      let v = kernel.Kernel.eval params x in
      QCheck.assume (Float.is_finite v);
      (* The Jacobian row the kernel's staged objective writes for Lm. *)
      let objective = Kernel.residual_objective kernel ~xs:[| x |] ~ys:[| 0.0 |] in
      let g = Array.make kernel.Kernel.arity Float.nan in
      objective.Lm.jacobian_into params g;
      let fd = Lm.finite_difference_jacobian objective.Lm.residual params in
      Array.for_all Fun.id
        (Array.init kernel.Kernel.arity (fun j ->
             let a = g.(j) and b = Mat.get fd 0 j in
             Float.abs (a -. b) <= 1e-4 *. Float.max 1.0 (Float.abs b))))

let prop_fit_never_worsens_rmse_vs_constant =
  (* Whatever the data, a kernel fit must not lose to the trivial constant
     predictor by a large factor on its own training points. *)
  QCheck.Test.make ~count:30 ~name:"fits beat or match the constant baseline"
    QCheck.(list_of_size (Gen.return 8) (float_range 1.0 1000.0))
    (fun ys ->
      let xs = Array.init 8 (fun i -> float_of_int (i + 1)) in
      let ys = Array.of_list ys in
      let mean = Stats.mean ys in
      let constant_rmse = Stats.rmse (Array.make 8 mean) ys in
      match Fit.fit Poly25.kernel ~xs ~ys with
      | None -> true
      | Some fitted -> fitted.Fit.fit_rmse <= constant_rmse +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Simulator invariants                                                *)
(* ------------------------------------------------------------------ *)

let small_spec_gen =
  QCheck.make
    ~print:(fun (u, r, s, seed) -> Printf.sprintf "useful=%g reads=%d shared=%g seed=%d" u r s seed)
    QCheck.Gen.(
      let* u = float_range 50.0 2000.0 in
      let* r = int_range 0 16 in
      let* s = float_range 0.0 1.0 in
      let* seed = int_range 1 10_000 in
      return (u, r, s, seed))

let spec_of (u, r, s, _) =
  {
    Spec.name = "prop";
    scaling = Spec.Strong 2_000;
    private_footprint_lines = 1_000;
    shared_footprint_lines = 10_000;
    footprint_scales_with_threads = false;
    op =
      {
        Spec.useful_cycles = u;
        useful_cv = 0.1;
        mem_reads = r;
        mem_writes = 1;
        shared_fraction = s;
        write_shared_fraction = 0.2;
        fp_fraction = 0.1;
        dependency_factor = 0.1;
        branch_mpki = 1.0;
        frontend_cycles = 2.0;
        sync = Spec.No_sync;
        barrier_every = None;
        barrier_kind = Spec.Spinlock;
      };
  }

let prop_engine_time_positive_and_finite =
  QCheck.Test.make ~count:30 ~name:"engine produces positive finite makespans" small_spec_gen
    (fun ((_, _, _, seed) as g) ->
      let r = Engine.run ~seed ~machine:Machines.xeon20 ~spec:(spec_of g) ~threads:4 () in
      Float.is_finite r.Engine.cycles && r.Engine.cycles > 0.0)

let prop_engine_deterministic =
  QCheck.Test.make ~count:20 ~name:"engine is deterministic per seed" small_spec_gen
    (fun ((_, _, _, seed) as g) ->
      let spec = spec_of g in
      let a = Engine.run ~seed ~machine:Machines.xeon20 ~spec ~threads:3 () in
      let b = Engine.run ~seed ~machine:Machines.xeon20 ~spec ~threads:3 () in
      a.Engine.cycles = b.Engine.cycles)

let prop_engine_accounting =
  QCheck.Test.make ~count:20 ~name:"per-thread cycles fully attributed (No_sync)" small_spec_gen
    (fun ((_, _, _, seed) as g) ->
      let r = Engine.run ~seed ~machine:Machines.xeon20 ~spec:(spec_of g) ~threads:4 () in
      Array.for_all
        (fun (ts : Engine.thread_stats) ->
          let charged = Ledger.useful ts.Engine.ledger +. Ledger.total_stalls ts.Engine.ledger in
          Float.abs (ts.Engine.finish_cycles -. charged) <= 1e-6 *. Float.max 1.0 charged)
        r.Engine.per_thread)

let prop_engine_stalls_nonnegative =
  QCheck.Test.make ~count:20 ~name:"all stall categories non-negative" small_spec_gen
    (fun ((_, _, _, seed) as g) ->
      let r = Engine.run ~seed ~machine:Machines.opteron48 ~spec:(spec_of g) ~threads:6 () in
      List.for_all (fun (_, v) -> v >= 0.0) (Ledger.to_assoc r.Engine.ledger))

let prop_single_thread_no_contention_stalls =
  QCheck.Test.make ~count:20 ~name:"one thread never spins or aborts" small_spec_gen
    (fun ((_, _, _, seed) as g) ->
      let r = Engine.run ~seed ~machine:Machines.xeon20 ~spec:(spec_of g) ~threads:1 () in
      Ledger.get r.Engine.ledger Stall.Lock_spin = 0.0
      && Ledger.get r.Engine.ledger Stall.Stm_abort = 0.0
      && Ledger.get r.Engine.ledger Stall.Coherence = 0.0)

(* ------------------------------------------------------------------ *)
(* Pipeline invariants                                                 *)
(* ------------------------------------------------------------------ *)

let prop_approximation_interpolates_linear_data =
  QCheck.Test.make ~count:30 ~name:"approximation reproduces affine series"
    QCheck.(pair (float_range 1.0 100.0) (float_range 0.0 50.0))
    (fun (a, b) ->
      let xs = Array.init 12 (fun i -> float_of_int (i + 1)) in
      let ys = Array.map (fun x -> a +. (b *. x)) xs in
      match Estima.Approximation.approximate ~xs ~ys ~target_max:48.0 ~require_nonnegative:true () with
      | Error _ -> false
      | Ok choice ->
          let p = choice.Estima.Approximation.fitted.Fit.eval 24.0 in
          let want = a +. (b *. 24.0) in
          Float.abs (p -. want) <= 0.15 *. Float.max 1.0 want)

let prop_extrapolation_clamped_accounting =
  (* Whatever the per-category curves do — including dipping below zero —
     [stalls_per_core t.(i) * n] must equal the sum of the clamped
     [category_values] at every grid point: the per-category view and the
     total must clamp identically. *)
  QCheck.Test.make ~count:50 ~name:"stalls per core times n equals sum of clamped categories"
    QCheck.(
      list_of_size
        Gen.(int_range 1 4)
        (triple (float_range (-50.0) 50.0) (float_range (-10.0) 10.0) (float_range (-1.0) 1.0)))
    (fun coeffs ->
      QCheck.assume (coeffs <> []);
      let grid = Array.init 16 (fun i -> float_of_int (i + 1)) in
      let fits =
        List.mapi
          (fun k (a, b, c) ->
            {
              Estima.Extrapolation.category = Printf.sprintf "c%d" k;
              choice =
                {
                  Estima.Approximation.fitted =
                    (let eval n = a +. (b *. n) +. (c *. n *. n) in
                     {
                       Fit.kernel_name = "Synthetic";
                       params = [||];
                       y_scale = 1.0;
                       fit_rmse = 0.0;
                       eval;
                       values_into = Fit.pointwise eval;
                     });
                  prefix = 3;
                  checkpoint_rmse = 0.0;
                };
              measured = [||];
            })
          coeffs
      in
      let t = { Estima.Extrapolation.fits; threads = grid; target_grid = grid } in
      let per_category =
        List.map (fun f -> Estima.Extrapolation.category_values t f.Estima.Extrapolation.category) fits
      in
      let spc = Estima.Extrapolation.stalls_per_core t in
      Array.for_all Fun.id
        (Array.mapi
           (fun i n ->
             let sum = List.fold_left (fun acc vs -> acc +. vs.(i)) 0.0 per_category in
             let total = spc.(i) *. n in
             Float.abs (sum -. total) <= 1e-9 *. Float.max 1.0 (Float.abs total))
           grid))

let prop_error_metric_zero_for_perfect_prediction =
  QCheck.Test.make ~count:30 ~name:"error is zero for perfect predictions"
    QCheck.(list_of_size (Gen.return 6) (float_range 0.1 100.0))
    (fun ts ->
      let times = Array.of_list ts in
      let grid = Array.init 6 (fun i -> float_of_int (i + 1)) in
      let e = Estima.Diag.Quality.evaluate ~predicted:times ~measured:times ~target_grid:grid () in
      e.Estima.Diag.Quality.max_error = 0.0 && e.Estima.Diag.Quality.verdict_agrees)

(* ------------------------------------------------------------------ *)
(* Fit_cache: model-based LRU properties                               *)
(* ------------------------------------------------------------------ *)

(* Reference model: an assoc list of (key, value), most recently used
   first, bounded at [capacity].  Both find and add move the key to the
   front; inserting a fresh key into a full cache drops the last
   (least recently used) element. *)
module Cache_model = struct
  type t = { capacity : int; mutable entries : (string * int) list }

  let create ~capacity = { capacity; entries = [] }

  let find m key =
    match List.assoc_opt key m.entries with
    | None -> None
    | Some v ->
        m.entries <- (key, v) :: List.remove_assoc key m.entries;
        Some v

  let add m key value =
    let without = List.remove_assoc key m.entries in
    let without =
      if List.mem_assoc key m.entries || List.length without < m.capacity then without
      else List.filteri (fun i _ -> i < m.capacity - 1) without
    in
    m.entries <- (key, value) :: without
end

type cache_op = Cache_add of int * int | Cache_find of int

let cache_op_gen =
  QCheck.Gen.(
    frequency
      [
        (1, map2 (fun k v -> Cache_add (k, v)) (int_range 0 5) (int_range 0 1000));
        (1, map (fun k -> Cache_find k) (int_range 0 5));
      ])

let cache_op_print = function
  | Cache_add (k, v) -> Printf.sprintf "add k%d %d" k v
  | Cache_find k -> Printf.sprintf "find k%d" k

let cache_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list cache_op_print)
    QCheck.Gen.(list_size (int_range 0 60) cache_op_gen)

let prop_fit_cache_matches_model =
  QCheck.Test.make ~count:200 ~name:"fit cache behaves as the model LRU" cache_ops_arb (fun ops ->
      let capacity = 3 in
      let cache = Estima_service.Fit_cache.create ~capacity in
      let model = Cache_model.create ~capacity in
      List.for_all
        (fun op ->
          match op with
          | Cache_add (k, v) ->
              let key = "k" ^ string_of_int k in
              Estima_service.Fit_cache.add cache key v;
              Cache_model.add model key v;
              true
          | Cache_find k ->
              let key = "k" ^ string_of_int k in
              Estima_service.Fit_cache.find cache key = Cache_model.find model key)
        ops
      && Estima_service.Fit_cache.length cache = List.length model.Cache_model.entries
      && Estima_service.Fit_cache.length cache <= capacity)

(* ------------------------------------------------------------------ *)
(* CSV round trip on adversarial floats                                *)
(* ------------------------------------------------------------------ *)

(* The %.17g contract: parse . print is the identity on every finite
   float, bit for bit — including negative zero, subnormals and values
   at the top of the representable range. *)
let adversarial_float =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          oneofl
            [
              -0.0;
              0.0;
              4.9406564584124654e-324 (* min subnormal *);
              -4.9406564584124654e-324;
              2.2250738585072014e-308 (* min normal *);
              1.7976931348623157e+308 (* max finite *);
              -1.7976931348623157e+308;
              0.1 +. 0.2;
              1.0 /. 3.0;
              epsilon_float;
            ] );
        (2, float_range (-1e18) 1e18);
        (1, map (fun f -> f *. 1e-310) (float_range (-1.0) 1.0)) (* random subnormals *);
      ])

let bits = Int64.bits_of_float

let adversarial_sample_arb =
  (* threads grows per sample index; counter values are the adversarial
     payload.  Times must be positive and finite per the CSV contract. *)
  QCheck.make
    ~print:QCheck.Print.(list (list float))
    QCheck.Gen.(list_size (int_range 1 8) (list_repeat 3 adversarial_float))

let adversarial_samples rows =
  List.mapi
    (fun i row ->
      let c = List.nth row 0 and d = List.nth row 1 and e = List.nth row 2 in
      {
        Estima_counters.Sample.threads = i + 1;
        time_seconds = 0.1 +. (0.9 /. float_of_int (i + 1));
        cycles = Float.abs c +. 1.0;
        counters = [ ("0D2h", c); ("0D5h", d) ];
        software = [ ("stm-abort", e) ];
        footprint_lines = i * 64;
        useful_cycles = Float.abs d;
      })
    rows

let prop_csv_roundtrip_adversarial =
  QCheck.Test.make ~count:200 ~name:"csv parse . print is the identity on adversarial floats"
    adversarial_sample_arb (fun rows ->
      let machine = Machines.opteron48 in
      let samples = adversarial_samples rows in
      let series = Estima_counters.Series.make ~machine ~spec_name:"prop" samples in
      let csv = Estima_counters.Csv_export.series_to_csv series in
      match Estima_counters.Series_io.parse ~machine ~spec_name:"prop" csv with
      | Error e -> QCheck.Test.fail_report (Estima_counters.Series_io.render_error e)
      | Ok back ->
          let same_float a b = bits a = bits b in
          Array.length back.Estima_counters.Series.samples = List.length samples
          && List.for_all2
               (fun (a : Estima_counters.Sample.t) (b : Estima_counters.Sample.t) ->
                 a.Estima_counters.Sample.threads = b.Estima_counters.Sample.threads
                 && same_float a.Estima_counters.Sample.time_seconds b.Estima_counters.Sample.time_seconds
                 && same_float a.Estima_counters.Sample.cycles b.Estima_counters.Sample.cycles
                 && same_float a.Estima_counters.Sample.useful_cycles b.Estima_counters.Sample.useful_cycles
                 && a.Estima_counters.Sample.footprint_lines = b.Estima_counters.Sample.footprint_lines
                 && List.for_all2
                      (fun (n1, v1) (n2, v2) -> n1 = n2 && same_float v1 v2)
                      a.Estima_counters.Sample.counters b.Estima_counters.Sample.counters
                 && List.for_all2
                      (fun (n1, v1) (n2, v2) -> n1 = n2 && same_float v1 v2)
                      a.Estima_counters.Sample.software b.Estima_counters.Sample.software)
               samples
               (Array.to_list back.Estima_counters.Series.samples))

(* Apply [f] to float cell [j] of a sample: 0-2 are time_seconds,
   cycles and useful_cycles, 3 on the counter then software columns. *)
let with_cell (s : Estima_counters.Sample.t) j f =
  let columns offset = List.mapi (fun k (n, v) -> (n, if k + offset = j then f v else v)) in
  match j with
  | 0 -> { s with time_seconds = f s.time_seconds }
  | 1 -> { s with cycles = f s.cycles }
  | 2 -> { s with useful_cycles = f s.useful_cycles }
  | _ ->
      {
        s with
        counters = columns 3 s.counters;
        software = columns (3 + List.length s.counters) s.software;
      }

(* Move one name across the counter/software boundary: the last counter
   to the front of software keeps the columns' order, the first counter
   to the end of software changes it. *)
let move_column ~keep_order (s : Estima_counters.Sample.t) =
  match List.rev s.counters with
  | last :: rest when keep_order -> { s with counters = List.rev rest; software = last :: s.software }
  | _ -> (
      match s.counters with
      | first :: rest -> { s with counters = rest; software = s.software @ [ first ] }
      | [] -> s)

let digest_edit_arb =
  QCheck.make
    ~print:(fun (rows, edit, (i, j), coin) ->
      Printf.sprintf "edit %d at sample %d cell %d (%b) on %s" edit i j coin
        (QCheck.Print.(list (list float)) rows))
    QCheck.Gen.(
      quad
        (list_size (int_range 1 8) (list_repeat 3 adversarial_float))
        (int_bound 5) (pair small_nat (int_bound 5)) bool)

(* The server's cache key rests on this equivalence: equal digests
   exactly when the canonical CSVs are equal, for a series and a copy
   under each kind of edit. *)
let prop_series_digest_agrees_with_csv =
  QCheck.Test.make ~count:300 ~name:"series digest is equal exactly when the csv is"
    digest_edit_arb (fun (rows, edit, (i, j), coin) ->
      let samples = adversarial_samples rows in
      let i = i mod List.length samples in
      let at_cell f = List.mapi (fun k s -> if k = i then with_cell s j f else s) in
      let a, b =
        match edit with
        | 0 -> (samples, samples)
        | 1 -> (samples, at_cell (if coin then Float.succ else Float.pred) samples)
        | 2 ->
            let z, z' = if coin then (0.0, -0.0) else (-0.0, 0.0) in
            (at_cell (fun _ -> z) samples, at_cell (fun _ -> z') samples)
        | 3 -> (samples, at_cell (fun _ -> if coin then 4.9406564584124654e-324 else 1e308) samples)
        | 4 -> (samples, List.filteri (fun k _ -> k >= i) samples @ List.filteri (fun k _ -> k < i) samples)
        | _ -> (samples, List.map (move_column ~keep_order:coin) samples)
      in
      let series samples =
        Estima_counters.Series.make ~machine:Machines.opteron48 ~spec_name:"prop" samples
      in
      let a = series a and b = series b in
      let open Estima_counters.Csv_export in
      (series_digest a = series_digest b) = (series_to_csv a = series_to_csv b))

let suite =
  List.map to_alcotest
    [
      prop_vec_add_commutes;
      prop_dot_linear;
      prop_mean_bounds;
      prop_pearson_bounded;
      prop_quantile_monotone;
      prop_rng_int_range;
      prop_qr_solves_spd_systems;
      prop_kernel_gradient_matches_fd;
      prop_fit_never_worsens_rmse_vs_constant;
      prop_engine_time_positive_and_finite;
      prop_engine_deterministic;
      prop_engine_accounting;
      prop_engine_stalls_nonnegative;
      prop_single_thread_no_contention_stalls;
      prop_approximation_interpolates_linear_data;
      prop_extrapolation_clamped_accounting;
      prop_error_metric_zero_for_perfect_prediction;
      prop_fit_cache_matches_model;
      prop_csv_roundtrip_adversarial;
      prop_series_digest_agrees_with_csv;
    ]
