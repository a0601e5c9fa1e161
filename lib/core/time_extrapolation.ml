open Estima_kernels

type t = { target_grid : float array; predicted_times : float array; kernel_name : string }

let predict ?(config = Approximation.default_config) ?(subject = "series") ~threads ~times
    ~target_max ?(frequency_scale = 1.0) () =
  let err cause = Diag.error ~stage:Diag.Translate ~subject cause in
  let m = Array.length threads in
  if m = 0 then err (Diag.Short_series { points = 0; needed = 1 })
  else if m <> Array.length times then
    err (Diag.Mismatched_lengths { what = "times"; expected = m; got = Array.length times })
  else if (not (Float.is_finite frequency_scale)) || frequency_scale <= 0.0 then
    err (Diag.Bad_value { what = "frequency_scale"; value = frequency_scale })
  else if float_of_int target_max < threads.(m - 1) then
    err
      (Diag.Target_below_window { target = target_max; window = int_of_float threads.(m - 1) })
  else
    let scaled_times = Array.map (fun t -> t *. frequency_scale) times in
    match
      Approximation.approximate ~config ~subject ~xs:threads ~ys:scaled_times
        ~target_max:(float_of_int target_max) ~require_nonnegative:true ()
    with
    | Error d -> Error d
    | Ok choice ->
        let target_grid = Array.init target_max (fun i -> float_of_int (i + 1)) in
        Ok
          {
            target_grid;
            predicted_times = Fit.values choice.Approximation.fitted (Kernel.grid target_grid);
            kernel_name = choice.Approximation.fitted.Fit.kernel_name;
          }
