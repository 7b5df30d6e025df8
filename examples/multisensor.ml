(* Multi-sensor fusion: the paper's Fig. 4 shows a 6-input pTPB fed by
   several sensory signals at once. This example drives a 2-input
   ADAPT-pNC with two synthetic printed-sensor channels inside a smart
   food package:

     channel 0 - gas sensor (ethylene/VOC): ripening produce shows an
                 accelerating exponential rise; spoilage a late sharp
                 spike on top of drift;
     channel 1 - temperature: spoilage cases correlate with a warm
                 excursion, ripening does not.

   Classes: 0 = fresh, 1 = ripening, 2 = spoiling. Neither channel
   separates all three alone — the circuit has to fuse them, which is
   exactly what the input crossbar of the pTPB does.

   The training loop here works directly on Network.forward and the
   accuracy on Network.eval (one [batch x 2] tensor per time step),
   showing the multivariate API that Table-I experiments (univariate
   UCR) do not exercise.

   Run with: dune exec examples/multisensor.exe *)

module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng
module Network = Pnc_core.Network
module Variation = Pnc_core.Variation
module Optimizer = Pnc_optim.Optimizer

let length = 64
let classes = 3

let trace rng label =
  let gas_rate =
    match label with 0 -> 0.2 | 1 -> 1.5 +. Rng.gaussian ~sigma:0.3 rng | _ -> 0.5
  in
  let spike_at = Rng.uniform rng ~lo:0.6 ~hi:0.85 in
  let warm_at = Rng.uniform rng ~lo:0.3 ~hi:0.6 in
  Array.init length (fun i ->
      let t = float_of_int i /. float_of_int length in
      let gas =
        (exp (gas_rate *. t) -. 1.)
        +. (if label = 2 && t > spike_at then 2.5 *. (t -. spike_at) /. 0.2 else 0.)
        +. Rng.gaussian ~sigma:0.08 rng
      in
      let temp =
        4.
        +. (if label = 2 then 6. *. exp (-.(((t -. warm_at) /. 0.12) ** 2.)) else 0.)
        +. Rng.gaussian ~sigma:0.3 rng
      in
      (gas, temp))

let normalize channel =
  Pnc_util.Vec.normalize_range channel

let make_set rng n =
  let y = Array.init n (fun i -> i mod classes) in
  let raw = Array.map (fun label -> trace rng label) y in
  (* per-channel, per-sample normalization to [-1, 1] as in the paper *)
  let x =
    Array.map
      (fun tr ->
        let gas = normalize (Array.map fst tr) in
        let temp = normalize (Array.map snd tr) in
        (gas, temp))
      raw
  in
  (x, y)

(* One [batch x 2] tensor per time step. *)
let steps_of x =
  Array.init length (fun k ->
      T.init ~rows:(Array.length x) ~cols:2 (fun s c ->
          let gas, temp = x.(s) in
          if c = 0 then gas.(k) else temp.(k)))

let accuracy net steps y =
  let logits = Network.eval ~draws:(Network.shared Variation.deterministic) net steps in
  Pnc_util.Stats.accuracy ~pred:(T.argmax_rows logits) ~truth:y

let () =
  let rng = Rng.create ~seed:31 in
  let x_train, y_train = make_set rng 180 in
  let x_test, y_test = make_set rng 90 in
  let train_steps = steps_of x_train and test_steps = steps_of x_test in
  Printf.printf "multi-sensor smart package: 2 channels x %d steps, %d classes\n" length classes;

  let net = Network.create ~hidden:6 (Rng.create ~seed:32) Network.Adapt ~inputs:2 ~classes in
  let params = Network.params net in
  let opt = Optimizer.adamw ~params () in
  let vrng = Rng.create ~seed:33 in
  for epoch = 1 to 250 do
    Optimizer.zero_grads opt;
    (* variation-aware: a fresh ±10% physical sample per epoch *)
    let draw = Variation.make_draw vrng (Variation.uniform 0.1) in
    let logits = Network.forward ~draw net train_steps in
    let loss = Pnc_autodiff.Loss.softmax_cross_entropy ~logits ~labels:y_train in
    Var.backward loss;
    Optimizer.clip_grad_norm opt ~max_norm:5.;
    Optimizer.step opt ~lr:0.03;
    Network.clamp net;
    if epoch mod 50 = 0 then
      Printf.printf "epoch %3d: train loss %.4f\n%!" epoch (T.get_scalar (Var.value loss))
  done;

  Printf.printf "train accuracy: %.3f\n" (accuracy net train_steps y_train);
  Printf.printf "test accuracy:  %.3f\n" (accuracy net test_steps y_test);

  (* Fusion check: how good is the circuit with one channel zeroed? *)
  let ablate_channel c steps =
    Array.map
      (fun step -> T.init ~rows:(T.rows step) ~cols:2 (fun s j -> if j = c then 0. else T.get step s j))
      steps
  in
  Printf.printf "test accuracy, gas channel only:  %.3f\n"
    (accuracy net (ablate_channel 1 test_steps) y_test);
  Printf.printf "test accuracy, temp channel only: %.3f\n"
    (accuracy net (ablate_channel 0 test_steps) y_test);
  print_endline "(both single-channel scores should fall below the fused score)"
