module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng
module Optimizer = Pnc_optim.Optimizer

let chip ~seed spec =
  let frozen = Rng.create ~seed in
  fun () -> Variation.make_draw (Rng.copy frozen) spec

let bias_params net =
  List.concat_map
    (fun (cb, _, _) ->
      match Crossbar.params cb with [ _theta; theta_b ] -> [ theta_b ] | _ -> assert false)
    (Network.layers net)

let trim ?(epochs = 60) ?(lr = 0.02) ~chip net dataset =
  let x, y = Train.to_xy dataset in
  let params = bias_params net in
  let steps = T.columns x in
  let opt = Optimizer.adam ~params () in
  for _ = 1 to epochs do
    Optimizer.zero_grads opt;
    let logits = Network.forward ~draw:(chip ()) net steps in
    Var.backward (Pnc_autodiff.Loss.softmax_cross_entropy ~logits ~labels:y);
    Optimizer.step opt ~lr;
    Network.clamp net
  done

type outcome = { before : float; after : float }

let chip_accuracy ~chip net dataset =
  let x, y = Train.to_xy dataset in
  let pred = T.argmax_rows (Network.eval ~draws:(Network.shared (chip ())) net (T.columns x)) in
  Pnc_util.Stats.accuracy ~pred ~truth:y

let evaluate ?epochs ?lr ~chip net ~calibration ~test =
  let saved = List.map (fun p -> T.copy (Var.value p)) (bias_params net) in
  let before = chip_accuracy ~chip net test in
  trim ?epochs ?lr ~chip net calibration;
  let after = chip_accuracy ~chip net test in
  (* Restore the design: each physical chip is trimmed independently. *)
  List.iter2
    (fun p s ->
      let t = Var.value p in
      for r = 0 to T.rows t - 1 do
        for c = 0 to T.cols t - 1 do
          T.set t r c (T.get s r c)
        done
      done)
    (bias_params net) saved;
  { before; after }
