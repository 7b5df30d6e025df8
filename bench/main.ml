(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md section 3 and EXPERIMENTS.md).

   Sections, in order:
   - Fig. 6    augmentation showcase (PowerCons)
   - Sec III-2 coupling-factor (mu) extraction via SPICE-lite
   - Fig. 4    printed filter characterization (cutoffs)
   - Table I   accuracy on the 15 benchmarks (3 model families)
   - Fig. 5    baseline degradation under variation
   - Fig. 7    ablation (VA / AT / SO-LF / combined)
   - Table III hardware costs and power
   - Table II  runtime (Timer means + Bechamel microbenchmark)

   Scale via ADAPT_PNC_SCALE=smoke|fast|paper (default fast). *)

module Config = Pnc_exp.Config
module Experiments = Pnc_exp.Experiments
module Obs = Pnc_obs.Obs

let progress msg = Printf.eprintf "[bench] %s\n%!" msg

(* Table II microbenchmark: one Bechamel test per model family, each
   running a single full-batch training epoch on the first dataset. *)
let bechamel_table2 cfg =
  let open Bechamel in
  let open Toolkit in
  let dataset = List.hd cfg.Config.datasets in
  let raw = Pnc_data.Registry.load ?n:cfg.Config.dataset_n ~seed:0 dataset in
  let split = Pnc_data.Dataset.preprocess (Pnc_util.Rng.create ~seed:1) raw in
  let classes = raw.Pnc_data.Dataset.n_classes in
  let rng = Pnc_util.Rng.create ~seed:2 in
  let mk_epoch model train_cfg =
    let x, y = Pnc_core.Train.to_xy split.Pnc_data.Dataset.train in
    let params = Pnc_core.Model.params model in
    let opt = Pnc_optim.Optimizer.adamw ~params () in
    fun () ->
      Pnc_optim.Optimizer.zero_grads opt;
      let loss =
        Pnc_core.Mc_loss.expected ~rng ~spec:train_cfg.Pnc_core.Train.variation
          ~n:train_cfg.Pnc_core.Train.mc_samples model ~x ~labels:y
      in
      Pnc_autodiff.Var.backward loss;
      Pnc_optim.Optimizer.step opt ~lr:1e-4
  in
  let elman =
    mk_epoch
      (Pnc_core.Model.Reference (Pnc_core.Elman.create rng ~inputs:1 ~classes))
      cfg.Config.train_base
  in
  let ptpnc =
    mk_epoch
      (Pnc_core.Model.Circuit
         (Pnc_core.Network.create ~hidden:(max 2 classes) rng Pnc_core.Network.Ptpnc ~inputs:1
            ~classes))
      cfg.Config.train_base
  in
  let adapt =
    mk_epoch
      (Pnc_core.Model.Circuit
         (Pnc_core.Network.create ~hidden:(max 4 (2 * classes)) rng Pnc_core.Network.Adapt
            ~inputs:1 ~classes))
      cfg.Config.train_va
  in
  let tests =
    Test.make_grouped ~name:"epoch" ~fmt:"%s %s"
      [
        Test.make ~name:"elman-rnn" (Staged.stage elman);
        Test.make ~name:"ptpnc-baseline" (Staged.stage ptpnc);
        Test.make ~name:"adapt-pnc" (Staged.stage adapt);
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let bench_cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:(Some 10) () in
  let raw_results = Benchmark.all bench_cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let merged = Analyze.merge ols instances results in
  print_endline "Table II (Bechamel) - one training epoch, monotonic clock";
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) ->
          Printf.printf "  %-28s %s/epoch\n" name (Pnc_util.Timer.fmt_seconds (est *. 1e-9))
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    clock;
  print_newline ()

(* Classes of one no-grad evaluation of [net] under [draw]. *)
let predict ?batch_size ?precision ~draw net x =
  Pnc_tensor.Tensor.argmax_rows
    (Pnc_core.Network.eval ?batch_size ?precision ~draws:(Pnc_core.Network.shared draw) net
       (Pnc_tensor.Tensor.columns x))

(* Tentpole benchmark: throughput of accuracy evaluation under
   variation — the Var-graph path (builds the full autodiff DAG per
   draw) against the no-grad tensor fast path used by Model.eval /
   Mc_loss.expected_value. Also reports training epochs/s for
   context. *)
let bench_eval_throughput cfg =
  let dataset = List.hd cfg.Config.datasets in
  let raw = Pnc_data.Registry.load ?n:cfg.Config.dataset_n ~seed:0 dataset in
  let split = Pnc_data.Dataset.preprocess (Pnc_util.Rng.create ~seed:1) raw in
  let classes = raw.Pnc_data.Dataset.n_classes in
  let rng = Pnc_util.Rng.create ~seed:2 in
  let net =
    Pnc_core.Network.create ~hidden:(max 4 (2 * classes)) rng Pnc_core.Network.Adapt ~inputs:1
      ~classes
  in
  let x, y = Pnc_core.Train.to_xy split.Pnc_data.Dataset.test in
  let spec = Pnc_core.Variation.uniform 0.1 in
  let n_draws = 20 in
  let eval_with forward () =
    let r = Pnc_util.Rng.create ~seed:7 in
    for _ = 1 to n_draws do
      let draw = Pnc_core.Variation.make_draw r spec in
      let pred = forward ~draw in
      ignore (Pnc_util.Stats.accuracy ~pred ~truth:y)
    done
  in
  let eval_var =
    eval_with (fun ~draw ->
        Pnc_tensor.Tensor.argmax_rows
          (Pnc_autodiff.Var.value
             (Pnc_core.Network.forward ~draw net (Pnc_tensor.Tensor.columns x))))
  in
  let whole = Pnc_tensor.Tensor.rows x in
  let eval_fast = eval_with (fun ~draw -> predict ~batch_size:whole ~draw net x) in
  eval_var ();
  eval_fast ();
  let t_var = Pnc_util.Timer.time_mean ~repeats:3 eval_var in
  let t_fast = Pnc_util.Timer.time_mean ~repeats:3 eval_fast in
  let per_draw t = t /. float_of_int n_draws in
  let emit_throughput path t =
    if Obs.enabled () then
      Obs.emit "bench.throughput"
        [
          ("section", Obs.Str "eval");
          ("path", Obs.Str path);
          ("draws", Obs.Int n_draws);
          ("seconds", Obs.Float t);
          ("draws_per_s", Obs.Float (1. /. per_draw t));
        ]
  in
  print_endline "Eval throughput - accuracy under +-10% variation, ADAPT net, test split";
  Printf.printf "  Var graph path               %8.1f draws/s (%s per draw)\n"
    (1. /. per_draw t_var)
    (Pnc_util.Timer.fmt_seconds (per_draw t_var));
  Printf.printf "  no-grad tensor path          %8.1f draws/s (%s per draw)\n"
    (1. /. per_draw t_fast)
    (Pnc_util.Timer.fmt_seconds (per_draw t_fast));
  Printf.printf "  speedup                      %8.2fx\n" (t_var /. t_fast);
  emit_throughput "var" t_var;
  emit_throughput "tensor" t_fast;

  (* Batched vs single-sample no-grad path. Three regimes over the same
     protocol:
     - single-sample: one [eval] call per series — the scalar
       client loop the batched engine replaces. Evaluating one physical
       instance sample by sample forces the caller to replay the draw
       (copy the stream) for every series, so each call pays a full
       realization on top of the [1 x time] kernels.
     - chunked block=1: [eval ~batch_size:1] — realize once,
       then per-sample row blocks through the blocked kernels.
     - batched: the whole split as one block (t_fast above).
     All three produce bit-identical predictions (checked below); only
     throughput changes. *)
  let rows = Pnc_tensor.Tensor.rows x in
  let scalar_predict ~rng_draw =
    Array.init rows (fun i ->
        (* Same physical instance for every series: replay the draw's
           stream per call, as a scalar consumer must. *)
        let draw = Pnc_core.Variation.make_draw (Pnc_util.Rng.copy rng_draw) spec in
        (predict ~draw net (Pnc_tensor.Tensor.rows_view x ~row:i ~len:1)).(0))
  in
  let eval_scalar () =
    let r = Pnc_util.Rng.create ~seed:7 in
    for _ = 1 to n_draws do
      let pred = scalar_predict ~rng_draw:r in
      (* Advance the parent stream exactly like [make_draw] + realize
         does on the batched paths. *)
      ignore (predict ~draw:(Pnc_core.Variation.make_draw r spec) net
                (Pnc_tensor.Tensor.rows_view x ~row:0 ~len:1));
      ignore (Pnc_util.Stats.accuracy ~pred ~truth:y)
    done
  in
  let eval_chunked =
    eval_with (fun ~draw -> predict ~batch_size:1 ~draw net x)
  in
  eval_scalar ();
  eval_chunked ();
  let t_scalar = Pnc_util.Timer.time_mean ~repeats:3 eval_scalar in
  let t_chunked = Pnc_util.Timer.time_mean ~repeats:3 eval_chunked in
  let batch_parity =
    let r1 = Pnc_util.Rng.create ~seed:7
    and r2 = Pnc_util.Rng.create ~seed:7
    and r3 = Pnc_util.Rng.create ~seed:7 in
    let ok = ref true in
    for _ = 1 to n_draws do
      let scalar = scalar_predict ~rng_draw:r1 in
      (* Advance r1's stream by one realization, like the other paths. *)
      ignore
        (predict ~draw:(Pnc_core.Variation.make_draw r1 spec) net
           (Pnc_tensor.Tensor.rows_view x ~row:0 ~len:1));
      let all = predict ~batch_size:whole ~draw:(Pnc_core.Variation.make_draw r2 spec) net x in
      let chunked =
        predict ~batch_size:1 ~draw:(Pnc_core.Variation.make_draw r3 spec) net x
      in
      if scalar <> all || chunked <> all then ok := false
    done;
    !ok
  in
  let emit_batch ?(precision = `Exact) ?extra path batch_size t =
    if Obs.enabled () then
      Obs.emit "bench.batch"
        ([
           ("path", Obs.Str path);
           ("precision", Obs.Str (Pnc_core.Batch.precision_name precision));
           ("batch_size", Obs.Int batch_size);
           ("rows", Obs.Int rows);
           ("draws", Obs.Int n_draws);
           ("seconds", Obs.Float t);
           ("draws_per_s", Obs.Float (1. /. per_draw t));
           ("speedup_vs_single", Obs.Float (t_scalar /. t));
         ]
        @ Option.value extra ~default:[ ("parity", Obs.Str (if batch_parity then "ok" else "VIOLATION")) ])
  in
  Printf.printf "  single-sample scalar loop    %8.1f draws/s (%s per draw)\n"
    (1. /. per_draw t_scalar)
    (Pnc_util.Timer.fmt_seconds (per_draw t_scalar));
  Printf.printf "  chunked (batch 1)            %8.1f draws/s (%s per draw)\n"
    (1. /. per_draw t_chunked)
    (Pnc_util.Timer.fmt_seconds (per_draw t_chunked));
  Printf.printf "  batched speedup              %8.2fx over single-sample (%d rows/block)%s\n"
    (t_scalar /. t_fast) rows
    (if batch_parity then "" else "  PARITY VIOLATION");
  emit_batch "single" 1 t_scalar;
  emit_batch "chunked" 1 t_chunked;
  emit_batch "batched" rows t_fast;

  (* Precision tier: the same whole-split batched evaluation with the
     `Fast rational-tanh kernel (<=1e-7 absolute error per activation,
     see lib/tensor/fast_math.mli). Its parity contract is a bounded
     drift, not bit-identity: max |logit delta| against `Exact under
     the same draw, plus the prediction agreement rate. *)
  let eval_tier precision =
    eval_with (fun ~draw -> predict ~precision ~draw net x)
  in
  let eval_exact_tier = eval_tier `Exact and eval_fast_tier = eval_tier `Fast in
  eval_exact_tier ();
  eval_fast_tier ();
  let t_exact_tier = Pnc_util.Timer.time_mean ~repeats:3 eval_exact_tier in
  let t_fast_tier = Pnc_util.Timer.time_mean ~repeats:3 eval_fast_tier in
  let drift, agree =
    let mk () = Pnc_core.Variation.make_draw (Pnc_util.Rng.create ~seed:7) spec in
    let logits precision =
      Pnc_core.Network.eval ~precision ~draws:(Pnc_core.Network.shared (mk ())) net
        (Pnc_tensor.Tensor.columns x)
    in
    let le = logits `Exact and lf = logits `Fast in
    let d = ref 0. in
    for r = 0 to rows - 1 do
      for c = 0 to Pnc_tensor.Tensor.cols le - 1 do
        d :=
          Float.max !d
            (Float.abs (Pnc_tensor.Tensor.get le r c -. Pnc_tensor.Tensor.get lf r c))
      done
    done;
    let pe = Pnc_tensor.Tensor.argmax_rows le and pf = Pnc_tensor.Tensor.argmax_rows lf in
    let same = ref 0 in
    Array.iteri (fun i p -> if p = pf.(i) then incr same) pe;
    (!d, float_of_int !same /. float_of_int rows)
  in
  let drift_ok = drift <= 1e-5 in
  Printf.printf "  batched fast tier            %8.1f draws/s (%s per draw)\n"
    (1. /. per_draw t_fast_tier)
    (Pnc_util.Timer.fmt_seconds (per_draw t_fast_tier));
  Printf.printf
    "  fast-tier speedup            %8.2fx over exact batched (max |dlogit| %.2e, %.1f%% agree)%s\n"
    (t_exact_tier /. t_fast_tier) drift (100. *. agree)
    (if drift_ok then "" else "  DRIFT VIOLATION");
  let tier_extra parity =
    [
      ("max_logit_delta", Obs.Float drift);
      ("agreement", Obs.Float agree);
      ("speedup_vs_exact", Obs.Float (t_exact_tier /. t_fast_tier));
      ("parity", Obs.Str parity);
    ]
  in
  emit_batch ~precision:`Exact
    ~extra:(tier_extra (if batch_parity then "ok" else "VIOLATION"))
    "batched-tier" rows t_exact_tier;
  emit_batch ~precision:`Fast
    ~extra:(tier_extra (if drift_ok then "ok" else "VIOLATION"))
    "batched-tier" rows t_fast_tier;
  let t_epoch =
    Pnc_core.Train.epoch_seconds cfg.Config.train_va (Pnc_core.Model.Circuit net) split
  in
  Printf.printf "  training (Var path)          %8.2f epochs/s (%s per epoch)\n\n%!"
    (1. /. t_epoch)
    (Pnc_util.Timer.fmt_seconds t_epoch);
  if Obs.enabled () then
    Obs.emit "bench.train"
      [ ("seconds_per_epoch", Obs.Float t_epoch); ("epochs_per_s", Obs.Float (1. /. t_epoch)) ];

  (* Multicore MC engine: the same no-grad MC objective distributed
     over a domain pool, per worker count. Each draw owns a pre-split
     child stream, so every row computes the *same* estimate — checked
     here at eps 0 — and only wall-clock changes. *)
  let model = Pnc_core.Model.Circuit net in
  let labels = y in
  let mc_draws = 32 in
  let mc_value ?pool () =
    Pnc_core.Mc_loss.expected_value ?pool ~rng:(Pnc_util.Rng.create ~seed:7) ~spec ~n:mc_draws
      model ~x ~labels
  in
  let reference = mc_value () in
  let t_seq = Pnc_util.Timer.time_mean ~repeats:3 (fun () -> ignore (mc_value ())) in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "MC eval throughput vs pool size - %d draws, ADAPT net (%d core%s available)\n"
    mc_draws cores (if cores = 1 then "" else "s");
  Printf.printf "  %-10s %12s %12s %10s\n" "workers" "draws/s" "per draw" "speedup";
  let report label workers t =
    Printf.printf "  %-10s %12.1f %12s %9.2fx\n" label
      (float_of_int mc_draws /. t)
      (Pnc_util.Timer.fmt_seconds (t /. float_of_int mc_draws))
      (t_seq /. t);
    if Obs.enabled () then
      Obs.emit "bench.mc_pool"
        [
          ("workers", Obs.Int workers);
          ("draws", Obs.Int mc_draws);
          ("seconds", Obs.Float t);
          ("draws_per_s", Obs.Float (float_of_int mc_draws /. t));
          ("speedup", Obs.Float (t_seq /. t));
        ]
  in
  report "sequential" 0 t_seq;
  List.iter
    (fun size ->
      Pnc_util.Pool.with_pool ~size (fun pool ->
          let v = mc_value ~pool () in
          if v <> reference then
            Printf.printf "  PARITY VIOLATION at %d workers: %.17g vs %.17g\n" size v reference;
          let t = Pnc_util.Timer.time_mean ~repeats:3 (fun () -> ignore (mc_value ~pool ())) in
          report (string_of_int size) size t))
    [ 1; 2; 4 ];
  print_newline ()

(* Streaming workload: windows/s of the sliding-window evaluator over a
   drifting, perturbed sensor stream — frozen model vs online test-time
   adaptation — with the usual parity check (frozen results bit-identical
   across batch chunking and pool size). *)
let bench_stream cfg =
  let module Scenario = Pnc_stream.Scenario in
  let module Online = Pnc_stream.Online in
  let dataset = List.hd cfg.Config.datasets in
  let scenario =
    Scenario.make ~dataset ~n_samples:48 ~seed:0
      ~drift:{ Scenario.drift_at = 24; kind = Scenario.Abrupt; shift = 1 }
      ~perturb:{ Scenario.no_perturb with burst_rate = 0.2; dropout_rate = 0.05 }
      ()
  in
  let rz = Scenario.realize scenario in
  Printf.eprintf "[bench] training the streaming model (%s)...\n%!" dataset;
  let r = Experiments.train_run cfg ~dataset ~variant:Experiments.Full ~seed:0 in
  let model = r.Experiments.model in
  let spec =
    if cfg.Config.eval_level > 0. then Some (Pnc_core.Variation.uniform cfg.Config.eval_level)
    else None
  in
  let precision = cfg.Config.precision in
  let protocol = { Online.default_protocol with Online.width = 8; stride = 8 } in
  let adapted_protocol = { protocol with Online.adapt = Online.All } in
  let rng () = Pnc_util.Rng.create ~seed:6000 in
  let frozen ?batch_size ?pool () =
    Online.eval ?batch_size ?pool ~precision ?spec ~rng:(rng ()) protocol model rz
  in
  let reference = frozen () in
  let nw = Array.length reference.Online.points in
  let parity =
    let chunked = frozen ~batch_size:1 () in
    let pooled = Pnc_util.Pool.with_pool ~size:2 (fun pool -> frozen ~pool ()) in
    chunked.Online.points = reference.Online.points
    && pooled.Online.points = reference.Online.points
  in
  let snap = Online.snapshot_params model in
  let adapted () =
    let a = Online.eval ~precision ?spec ~rng:(rng ()) adapted_protocol model rz in
    Online.restore_params model snap;
    a
  in
  ignore (adapted ());
  let t_frozen = Pnc_util.Timer.time_mean ~repeats:3 (fun () -> ignore (frozen ())) in
  let t_adapted = Pnc_util.Timer.time_mean ~repeats:3 (fun () -> ignore (adapted ())) in
  let wps t = float_of_int nw /. t in
  Printf.printf
    "Streaming throughput - %d windows of %d over %d drifting samples (%s)%s\n"
    nw protocol.Online.width (Array.length rz.Scenario.x) dataset
    (if parity then "" else "  PARITY VIOLATION");
  Printf.printf "  frozen                       %8.1f windows/s (%s per window)\n" (wps t_frozen)
    (Pnc_util.Timer.fmt_seconds (t_frozen /. float_of_int nw));
  Printf.printf "  adapted (all, %d steps)       %8.1f windows/s (%s per window)\n"
    adapted_protocol.Online.adapt_steps (wps t_adapted)
    (Pnc_util.Timer.fmt_seconds (t_adapted /. float_of_int nw));
  Printf.printf "  adaptation overhead          %8.2fx\n\n%!" (t_adapted /. t_frozen);
  let emit mode t =
    if Obs.enabled () then
      Obs.emit "bench.stream"
        [
          ("mode", Obs.Str mode);
          ("windows", Obs.Int nw);
          ("samples", Obs.Int (Array.length rz.Scenario.x));
          ("width", Obs.Int protocol.Online.width);
          ("seconds", Obs.Float t);
          ("windows_per_s", Obs.Float (wps t));
          ("parity", Obs.Str (if parity then "ok" else "VIOLATION"));
        ]
  in
  emit "frozen" t_frozen;
  emit "adapted" t_adapted

(* Noise-injection ablation under correlated variation: the same ADAPT
   architecture trained with and without straight-through noise
   injection, both evaluated under the correlated +drift draw model
   (the corr+var operating point of `adapt_pnc ablate`). The +NI row is
   the robust-training payoff this section pins. *)
let bench_ni ?pool cfg =
  let dataset = List.hd cfg.Config.datasets in
  let corr = Experiments.corr_of_cfg cfg in
  let row variant =
    Printf.eprintf "[bench] training %s (%s)...\n%!"
      (Experiments.variant_name variant)
      dataset;
    Experiments.train_run ?pool cfg ~dataset ~variant ~seed:0
  in
  let full = row Experiments.Full in
  let ni = row Experiments.Ni in
  Printf.printf
    "Noise-injection ablation - ADAPT net on %s, correlated variation (rho=%.2f, clen=%.2f)\n"
    dataset corr.Pnc_core.Variation.rho corr.Pnc_core.Variation.clen;
  let line name (r : Experiments.run) =
    Printf.printf "  %-12s clean %.3f   i.i.d.+var %.3f   corr+var %.3f\n" name
      r.Experiments.clean_acc r.Experiments.clean_var_acc r.Experiments.corr_var_acc
  in
  line "ADAPT" full;
  line "ADAPT +NI" ni;
  let gain = ni.Experiments.corr_var_acc -. full.Experiments.corr_var_acc in
  Printf.printf "  +NI corr+var gain            %+.3f%s\n\n%!" gain
    (if gain >= 0. then "" else "  REGRESSION");
  let emit name (r : Experiments.run) =
    if Obs.enabled () then
      Obs.emit "bench.ni"
        [
          ("variant", Obs.Str name);
          ("dataset", Obs.Str dataset);
          ("corr_rho", Obs.Float corr.Pnc_core.Variation.rho);
          ("corr_clen", Obs.Float corr.Pnc_core.Variation.clen);
          ("clean_acc", Obs.Float r.Experiments.clean_acc);
          ("clean_var_acc", Obs.Float r.Experiments.clean_var_acc);
          ("corr_var_acc", Obs.Float r.Experiments.corr_var_acc);
          ("gain", Obs.Float gain);
        ]
  in
  emit "adapt" full;
  emit "adapt+ni" ni

let run_all () =
  let cfg = Config.from_env () in
  (* ADAPT_PNC_JOBS=n selects the evaluation pool size (default: one
     worker per available core minus one; 0/1 = sequential). Results
     are worker-count-invariant by construction. *)
  let jobs =
    match Sys.getenv_opt "ADAPT_PNC_JOBS" with
    | Some s -> (try int_of_string (String.trim s) with _ -> Pnc_util.Pool.default_size ())
    | None -> Pnc_util.Pool.default_size ()
  in
  if Obs.enabled () then
    Obs.emit "bench.meta"
      [
        ("scale", Obs.Str (Config.scale_name cfg.Config.scale));
        ("datasets", Obs.Int (List.length cfg.Config.datasets));
        ("seeds", Obs.Int (List.length cfg.Config.seeds));
        ("jobs", Obs.Int jobs);
        ("cores", Obs.Int (Domain.recommended_domain_count ()));
      ];
  (* ADAPT_PNC_BENCH_ONLY=eval runs just the eval-throughput section
     (the batched-vs-scalar comparison CI uploads as an artifact) and
     skips the training grid; =stream likewise runs just the streaming
     throughput section. *)
  (match Sys.getenv_opt "ADAPT_PNC_BENCH_ONLY" with
  | Some s when String.trim (String.lowercase_ascii s) = "eval" ->
      Printf.printf "ADAPT-pNC benchmark harness (scale: %s, eval section only)\n\n"
        (Config.scale_name cfg.Config.scale);
      bench_eval_throughput cfg;
      Obs.emit_metrics ();
      print_endline "done.";
      exit 0
  | Some s when String.trim (String.lowercase_ascii s) = "stream" ->
      Printf.printf "ADAPT-pNC benchmark harness (scale: %s, stream section only)\n\n"
        (Config.scale_name cfg.Config.scale);
      bench_stream cfg;
      Obs.emit_metrics ();
      print_endline "done.";
      exit 0
  | Some s when String.trim (String.lowercase_ascii s) = "ni" ->
      Printf.printf "ADAPT-pNC benchmark harness (scale: %s, noise-injection section only)\n\n"
        (Config.scale_name cfg.Config.scale);
      bench_ni cfg;
      Obs.emit_metrics ();
      print_endline "done.";
      exit 0
  | _ -> ());
  let pool = Pnc_util.Pool.create ~size:jobs () in
  Printf.printf "ADAPT-pNC benchmark harness (scale: %s, %d datasets, seeds: %d, eval workers: %d)\n\n"
    (Config.scale_name cfg.Config.scale)
    (List.length cfg.Config.datasets)
    (List.length cfg.Config.seeds)
    (Pnc_util.Pool.size pool);

  (* Light artifacts first. *)
  Experiments.print_fig6 (Experiments.fig6 ());
  Experiments.print_mu_survey (Experiments.mu_survey ());
  Experiments.filter_characterization ();
  bench_eval_throughput cfg;
  bench_stream cfg;
  bench_ni ~pool cfg;

  (* The shared training grid behind Table I, Fig. 5, Fig. 7, Table III. *)
  let variants = Experiments.Reference :: Experiments.fig7_variants in
  (* ADAPT_PNC_CACHE_DIR=path caches each trained cell on disk, so an
     interrupted or re-run harness skips completed training runs. *)
  let cache_dir =
    match Sys.getenv_opt "ADAPT_PNC_CACHE_DIR" with
    | Some d when String.trim d <> "" -> Some d
    | _ -> None
  in
  let grid = Experiments.run_grid ~progress ~pool ?cache_dir cfg ~variants in
  Experiments.print_table1 (Experiments.table1_of_grid cfg grid);
  Experiments.print_fig5 (Experiments.fig5_of_grid cfg grid);
  Experiments.print_fig7 (Experiments.fig7_of_grid cfg grid);
  Experiments.print_table3 (Experiments.table3_of_grid cfg grid);

  (* Extension ablation: robustness and manufacturing yield as the
     process variation grows beyond the paper's 10% operating point. *)
  Experiments.print_variation_sweep ~threshold:0.6
    (Experiments.variation_sweep_of_grid ~threshold:0.6 ~pool cfg grid);

  (* Runtime comparisons. *)
  Experiments.print_table2 (Experiments.table2 ~progress cfg);
  bechamel_table2 cfg;
  Pnc_util.Pool.shutdown pool;
  Obs.emit_metrics ();
  print_endline "done."

let () =
  (* BENCH_OUT=path streams every bench section as JSON Lines (plus a
     final metrics snapshot) alongside the human-readable report. The
     instrumentation never touches an Rng stream, so the printed
     numbers are identical with and without the sink. *)
  match Sys.getenv_opt "BENCH_OUT" with
  | Some path when String.trim path <> "" -> Obs.with_jsonl ~path run_all
  | _ -> run_all ()
