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
   - variation sweep (accuracy and yield beyond the paper's +-10%)
   - Table II  runtime (Timer means + Bechamel microbenchmark)

   Table I through Table III come from one Pnc_grid.Grid.run, the path
   of `adapt_pnc grid run --shards 1`. Throughput lives in perfbench/.

   Scale via ADAPT_PNC_SCALE=smoke|fast|paper (default fast). *)

module Config = Pnc_exp.Config
module Experiments = Pnc_exp.Experiments
module Grid = Pnc_grid.Grid
module Obs = Pnc_obs.Obs

let progress msg = Printf.eprintf "[bench] %s\n%!" msg

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

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

  (* The shared training grid behind Table I, Fig. 5, Fig. 7, Table III. *)
  let variants = Experiments.all_variants in
  (* ADAPT_PNC_CACHE_DIR=path keeps each trained cell on disk, so an
     interrupted or re-run harness skips completed training runs (and
     `adapt_pnc grid merge` over the same directory prints the block
     below). Otherwise the cells live in a temp dir removed on exit. *)
  let dir =
    match Sys.getenv_opt "ADAPT_PNC_CACHE_DIR" with
    | Some d when String.trim d <> "" -> d
    | _ ->
        let d = Filename.temp_dir "adapt_pnc_bench" "" in
        at_exit (fun () -> rm_rf d);
        d
  in
  let grid = Grid.run ~pool ~progress ~dir cfg ~variants in
  Grid.print_merged cfg ~variants grid;

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
