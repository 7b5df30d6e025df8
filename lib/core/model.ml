type t = Circuit of Network.t | Reference of Elman.t

let label = function
  | Circuit net -> Network.arch_name (Network.arch net)
  | Reference _ -> "Elman RNN"

let params = function Circuit net -> Network.params net | Reference m -> Elman.params m

let named_params = function
  | Circuit net -> Network.named_params net
  | Reference m -> Elman.named_params m
let n_params = function Circuit net -> Network.n_params net | Reference m -> Elman.n_params m

let logits ?(draw = Variation.deterministic) t x =
  let steps = Pnc_tensor.Tensor.columns x in
  match t with
  | Circuit net -> Network.forward ~draw net steps
  | Reference m -> Elman.forward m steps

let eval ?batch_size ?precision ?state_init ?(draw = Variation.deterministic) t x =
  let steps = Pnc_tensor.Tensor.columns x in
  match t with
  | Circuit net ->
      Network.eval ?batch_size ?precision ?state_init ~draws:(Network.shared draw) net steps
  | Reference m -> Elman.eval ?batch_size ?precision m steps

let clamp = function Circuit net -> Network.clamp net | Reference _ -> ()
let is_circuit = function Circuit _ -> true | Reference _ -> false
