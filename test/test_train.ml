(* Integration tests: end-to-end training of the three model families
   on small synthetic workloads, snapshot restoration, printable-window
   invariants after optimization, and evaluation protocols. *)

module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng
module Dataset = Pnc_data.Dataset
module Registry = Pnc_data.Registry
module Network = Pnc_core.Network
module Elman = Pnc_core.Elman
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Variation = Pnc_core.Variation
module Printed = Pnc_core.Printed
module Filter_layer = Pnc_core.Filter_layer

let gpovy_split () =
  let raw = Registry.load ~seed:3 ~n:80 "GPOVY" in
  Dataset.preprocess (Rng.create ~seed:4) raw

let smoke = Train.smoke_config

let test_adapt_learns_separable () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:5 in
  let net = Network.create ~hidden:4 rng Network.Adapt ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let cfg = { smoke with Train.max_epochs = 120; patience = 15; mc_samples = 2 } in
  let _ = Train.train ~rng cfg model split in
  (* A ragged explicit batch size: the accuracy must be identical to
     the whole-split evaluation (batch parity), so this end-to-end
     assert also exercises the chunked path. *)
  let acc = Train.accuracy ~batch_size:7 model split.Dataset.test in
  Alcotest.(check bool) (Printf.sprintf "adapt beats chance strongly (%.3f)" acc) true (acc >= 0.8)

let test_baseline_learns_separable () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:6 in
  let net = Network.create ~hidden:2 rng Network.Ptpnc ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let cfg =
    { smoke with Train.max_epochs = 120; patience = 15; mc_samples = 1; variation = Variation.none }
  in
  let _ = Train.train ~rng cfg model split in
  let acc = Train.accuracy ~batch_size:7 model split.Dataset.test in
  Alcotest.(check bool) (Printf.sprintf "baseline beats chance (%.3f)" acc) true (acc >= 0.7)

let test_elman_learns_separable () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:7 in
  let model = Model.Reference (Elman.create rng ~inputs:1 ~classes:2) in
  let cfg =
    { smoke with Train.max_epochs = 150; patience = 20; mc_samples = 1; variation = Variation.none }
  in
  let _ = Train.train ~rng cfg model split in
  let acc = Train.accuracy model split.Dataset.test in
  Alcotest.(check bool) (Printf.sprintf "elman beats chance (%.3f)" acc) true (acc >= 0.7)

let test_loss_decreases () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:8 in
  let net = Network.create ~hidden:4 rng Network.Adapt ~inputs:1 ~classes:2 in
  let cfg = { smoke with Train.max_epochs = 80; mc_samples = 1; variation = Variation.none } in
  let h = Train.train ~rng cfg (Model.Circuit net) split in
  let curve = h.Train.train_loss_curve in
  let first = curve.(0) in
  let best = Array.fold_left Float.min infinity curve in
  Alcotest.(check bool)
    (Printf.sprintf "loss decreased (%.4f -> %.4f)" first best)
    true
    (best < first -. 0.05)

let test_history_shapes () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:9 in
  let net = Network.create ~hidden:2 rng Network.Ptpnc ~inputs:1 ~classes:2 in
  let cfg = { smoke with Train.max_epochs = 10 } in
  let h = Train.train ~rng cfg (Model.Circuit net) split in
  Alcotest.(check int) "curves match epochs" h.Train.epochs_run
    (Array.length h.Train.train_loss_curve);
  Alcotest.(check int) "val curve too" h.Train.epochs_run (Array.length h.Train.val_loss_curve);
  Alcotest.(check bool) "epochs bounded" true (h.Train.epochs_run <= 10)

let test_best_snapshot_restored () =
  (* With deterministic validation (no variation, v0 = 0 via
     deterministic evaluation) the restored model's validation loss must
     equal the recorded best. *)
  let split = gpovy_split () in
  let rng = Rng.create ~seed:10 in
  let model = Model.Reference (Elman.create rng ~inputs:1 ~classes:2) in
  let cfg = { smoke with Train.max_epochs = 60; mc_samples = 1; variation = Variation.none } in
  let h = Train.train ~rng cfg model split in
  let x, y = Train.to_xy split.Dataset.valid in
  let loss =
    Pnc_core.Mc_loss.expected_value ~rng ~spec:Variation.none ~n:1 model ~x ~labels:y
  in
  Alcotest.(check bool)
    (Printf.sprintf "restored val loss %.6f = best %.6f" loss h.Train.best_val_loss)
    true
    (Float.abs (loss -. h.Train.best_val_loss) < 1e-9)

let test_printable_invariants_after_training () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:11 in
  let net = Network.create ~hidden:4 rng Network.Adapt ~inputs:1 ~classes:2 in
  let cfg = { smoke with Train.max_epochs = 50 } in
  let _ = Train.train ~rng cfg (Model.Circuit net) split in
  List.iter
    (fun (cb, fl, _) ->
      let theta = Pnc_core.Crossbar.theta_values cb in
      Alcotest.(check bool) "theta clamped" true (T.max_abs theta <= 1. +. 1e-9);
      Array.iter
        (fun stage ->
          Array.iter
            (fun r ->
              Alcotest.(check bool) "R printable" true
                (r >= Printed.filter_r_min -. 1e-6 && r <= Printed.filter_r_max +. 1e-6))
            stage)
        (Filter_layer.r_values fl))
    (Network.layers net)

let test_accuracy_under_variation_bounds () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:12 in
  let net = Network.create ~hidden:2 rng Network.Ptpnc ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let acc =
    Train.accuracy_under_variation ~rng ~spec:(Variation.uniform 0.1) ~draws:3 model
      split.Dataset.test
  in
  Alcotest.(check bool) "in [0,1]" true (acc >= 0. && acc <= 1.)

let test_epoch_seconds_positive () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:13 in
  let net = Network.create ~hidden:2 rng Network.Ptpnc ~inputs:1 ~classes:2 in
  let s = Train.epoch_seconds smoke (Model.Circuit net) split in
  Alcotest.(check bool) "positive" true (s > 0.)

let test_step_is_train_epoch () =
  (* [Train.step] is the optimizer step [Train.train] runs (and the one
     [epoch_seconds] times): from the same model, stream and fresh
     optimizer, one step lands on a one-epoch run's loss and parameters
     bit for bit — clipping, noise injection and antithetic pairs
     included. *)
  let split = gpovy_split () in
  let model () =
    Model.Circuit (Network.create ~hidden:3 (Rng.create ~seed:14) Network.Adapt ~inputs:1 ~classes:2)
  in
  let cfg =
    { smoke with Train.max_epochs = 1; grad_clip = Some 0.5; noise_injection = true; antithetic = true }
  in
  let trained = model () in
  let h = Train.train ~rng:(Rng.create ~seed:15) cfg trained split in
  let stepped = model () in
  let x, labels = Train.to_xy split.Dataset.train in
  let opt =
    Pnc_optim.Optimizer.adamw ~weight_decay:cfg.Train.weight_decay ~params:(Model.params stepped) ()
  in
  let loss = Train.step ~opt ~lr:cfg.Train.lr ~rng:(Rng.create ~seed:15) cfg stepped ~x ~labels in
  Alcotest.(check bool) "same loss" true
    (Int64.bits_of_float loss = Int64.bits_of_float h.Train.train_loss_curve.(0));
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same parameters" true (T.equal_eps ~eps:0. (Var.value a) (Var.value b)))
    (Model.params trained) (Model.params stepped)

let test_variation_aware_helps_under_variation () =
  (* Train the same architecture with and without the MC objective and
     compare accuracy under strong (25%) component variation. The VA
     model must not be (much) worse; in the typical case it is better.
     This is the paper's central claim at smoke scale. *)
  let raw = Registry.load ~seed:31 ~n:120 "GPOVY" in
  let split = Dataset.preprocess (Rng.create ~seed:32) raw in
  let train_once ~va seed =
    let rng = Rng.create ~seed in
    let net = Network.create ~hidden:4 rng Network.Adapt ~inputs:1 ~classes:2 in
    let model = Model.Circuit net in
    let cfg =
      if va then { smoke with Train.max_epochs = 150; mc_samples = 4; variation = Variation.uniform 0.35 }
      else { smoke with Train.max_epochs = 150; mc_samples = 1; variation = Variation.none }
    in
    let _ = Train.train ~rng cfg model split in
    Train.accuracy_under_variation ~rng:(Rng.create ~seed:99) ~spec:(Variation.uniform 0.35)
      ~draws:10 model split.Dataset.test
  in
  let seeds = [ 41; 42; 43 ] in
  (* Median, not mean: at smoke scale the 35% VA optimization
     occasionally collapses outright for an unlucky seed (it does so
     for some seeds on every historical draw construction); the claim
     under test is about the typical trained model, so one collapsed
     run must not dominate the statistic. *)
  let med f =
    let xs = List.sort Float.compare (List.map f seeds) in
    List.nth xs (List.length xs / 2)
  in
  let va = med (train_once ~va:true) and base = med (train_once ~va:false) in
  Alcotest.(check bool)
    (Printf.sprintf "VA non-inferior under 35%% variation (median %.3f vs %.3f)" va base)
    true (va >= base -. 0.05)

let () =
  Alcotest.run "pnc_train"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "ADAPT learns" `Slow test_adapt_learns_separable;
          Alcotest.test_case "baseline learns" `Slow test_baseline_learns_separable;
          Alcotest.test_case "Elman learns" `Slow test_elman_learns_separable;
          Alcotest.test_case "loss decreases" `Slow test_loss_decreases;
          Alcotest.test_case "VA robustness" `Slow test_variation_aware_helps_under_variation;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "history shapes" `Quick test_history_shapes;
          Alcotest.test_case "best snapshot restored" `Quick test_best_snapshot_restored;
          Alcotest.test_case "printable invariants" `Quick test_printable_invariants_after_training;
          Alcotest.test_case "variation accuracy bounds" `Quick test_accuracy_under_variation_bounds;
          Alcotest.test_case "epoch seconds" `Quick test_epoch_seconds_positive;
          Alcotest.test_case "step = one train epoch" `Quick test_step_is_train_epoch;
        ] );
    ]
