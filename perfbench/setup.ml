(* The fixture shared by the workloads: fast-scale data, the ADAPT
   model of the grid's Full variant, and its training budget. The
   fixture is the same for every workload seed (it is generated from
   [fixture_seed] with the grid's own seed offsets); the workload seed
   draws what the workloads feed it: Monte-Carlo draws, perturbations,
   stream samples and request rows. *)

module Rng = Pnc_util.Rng
module Dataset = Pnc_data.Dataset
module Registry = Pnc_data.Registry
module Augment = Pnc_augment.Augment
module Network = Pnc_core.Network
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Variation = Pnc_core.Variation
module Persist = Pnc_core.Persist
module Config = Pnc_exp.Config

let cfg = Config.of_scale Config.Fast
let dataset_n = Option.value cfg.Config.dataset_n ~default:200
let fixture_seed = 0

(* The evaluation specs of a grid cell: i.i.d. +-10 % and the
   correlated operating point of the corr_var_acc metric. *)
let iid = Variation.uniform cfg.Config.eval_level
let corr = { iid with Variation.corr = Some (Pnc_exp.Experiments.corr_of_cfg cfg) }

(* ADAPT width as the grid sizes it: 2 x classes, clamped to [4, 8]. *)
let adapt_hidden ~classes = Stdlib.min 8 (Stdlib.max 4 (2 * classes))

(* The Full variant's training budget with a fixed epoch count: the
   plateau schedule can neither halve the rate nor stop early. *)
let fixed_epochs epochs =
  { cfg.Config.train_va with Train.max_epochs = epochs; patience = epochs; min_lr = 0. }

(* Fast-scale split with the training part augmented (the AT
   ingredient); returns the split and the class count. *)
let data ~dataset =
  Span.with_ "setup.data" @@ fun () ->
  let seed = fixture_seed in
  let raw = Registry.load ~n:dataset_n ~seed dataset in
  let split = Dataset.preprocess (Rng.create ~seed:(seed + 1000)) raw in
  let arng = Rng.create ~seed:(seed + 2000) in
  let train =
    Augment.augment_dataset arng Augment.default_policy ~copies:cfg.Config.aug_copies
      split.Dataset.train
  in
  ({ split with Dataset.train }, raw.Dataset.n_classes)

let model ~classes =
  let seed = fixture_seed in
  Model.Circuit
    (Network.create ~hidden:(adapt_hidden ~classes) (Rng.create ~seed:(seed + 77))
       Network.Adapt ~inputs:1 ~classes)

(* A Full model trained for [epochs] fixed epochs (the set-up budget of
   the workloads that need a trained circuit). *)
let trained ~split ~classes ~epochs =
  Span.with_ "setup.model" @@ fun () ->
  let m = model ~classes in
  ignore (Train.train ~rng:(Rng.create ~seed:(fixture_seed + 3000)) (fixed_epochs epochs) m split);
  m

(* Rows [0, n) of [d] cycled to exactly [n] rows. *)
let cycle (d : Dataset.t) n =
  Dataset.subset d (Array.init n (fun i -> i mod Dataset.n_samples d))

(* Scratch directory for checkpoints and span files, inside the
   checkout. *)
let out_dir () =
  let d = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d
