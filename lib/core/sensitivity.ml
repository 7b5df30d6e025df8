module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng
module Stats = Pnc_util.Stats
module Obs = Pnc_obs.Obs
module Clock = Pnc_obs.Clock

let draws_counter = Obs.Counter.make "sensitivity.draws"

type family = Crossbar_conductances | Filter_rc | Activation_eta | All_families

let family_name = function
  | Crossbar_conductances -> "crossbar conductances (theta)"
  | Filter_rc -> "filter R and C"
  | Activation_eta -> "activation eta"
  | All_families -> "all families"

type row = { family : family; accuracy : float; drop : float }

(* Runs on the tensor fast path (bit-identical to the Var-path forward
   under the same draws): pool tasks must not touch the global gradient
   tape, and the analysis needs no gradients anyway. Draw i owns child
   stream i, so the mean is worker-count-invariant. *)
let accuracy_with ?batch_size ?pool ~rng ~spec ~draws ~family net steps y =
  let rngs = Rng.split_n rng draws in
  let instance i =
    let varied = Variation.make_draw rngs.(i) spec in
    let nominal = Variation.deterministic in
    let family_draws =
      match family with
      | Crossbar_conductances -> { Network.crossbar = varied; filter = nominal; act = nominal }
      | Filter_rc -> { Network.crossbar = nominal; filter = varied; act = nominal }
      | Activation_eta -> { Network.crossbar = nominal; filter = nominal; act = varied }
      | All_families -> Network.shared varied
    in
    let logits = Network.eval ?batch_size ~draws:family_draws net steps in
    Stats.accuracy ~pred:(T.argmax_rows logits) ~truth:y
  in
  let accs =
    match pool with
    | None -> Array.init draws instance
    | Some p -> Pnc_util.Pool.init p ~n:draws instance
  in
  Array.fold_left ( +. ) 0. accs /. float_of_int draws

let analyze ?batch_size ?pool ~rng ~level ~draws net dataset =
  assert (draws >= 1 && level >= 0.);
  Obs.Span.with_ ~attrs:[ ("level", Obs.Float level); ("draws", Obs.Int draws) ]
    "sensitivity.analyze"
  @@ fun () ->
  let x, y = Train.to_xy dataset in
  let steps = T.columns x in
  let spec = Variation.uniform level in
  let nominal_pred =
    T.argmax_rows
      (Network.eval ?batch_size ~draws:(Network.shared Variation.deterministic) net steps)
  in
  let nominal = Stats.accuracy ~pred:nominal_pred ~truth:y in
  List.map
    (fun family ->
      let t0 = if Obs.enabled () then Clock.now () else 0. in
      let accuracy = accuracy_with ?batch_size ?pool ~rng ~spec ~draws ~family net steps y in
      Obs.Counter.add draws_counter draws;
      if Obs.enabled () then begin
        let dt = Clock.elapsed t0 in
        Obs.emit "sensitivity.family"
          [
            ("family", Obs.Str (family_name family));
            ("draws", Obs.Int draws);
            ("seconds", Obs.Float dt);
            ("draws_per_s", Obs.Float (float_of_int draws /. Float.max dt 1e-9));
            ("accuracy", Obs.Float accuracy);
            ("drop", Obs.Float (nominal -. accuracy));
          ]
      end;
      { family; accuracy; drop = nominal -. accuracy })
    [ Crossbar_conductances; Filter_rc; Activation_eta; All_families ]

let report rows =
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "%-32s acc %.3f (drop %+.3f)" (family_name r.family) r.accuracy
           (-.r.drop))
       rows)
