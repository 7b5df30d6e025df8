(** Hardware-agnostic 2-layer Elman RNN — the paper's reference
    accuracy model (Table I, first column), trained with the same
    optimizer and schedule as the circuit models. *)

type t

val create : ?hidden:int -> Pnc_util.Rng.t -> inputs:int -> classes:int -> t
(** Default [hidden = 8]. *)

val hidden : t -> int
val inputs : t -> int
val classes : t -> int
val params : t -> Pnc_autodiff.Var.t list

val named_params : t -> (string * Pnc_autodiff.Var.t) list
(** Stable checkpoint path names ([l1/w] .. [b_out]); same order as
    {!params}. *)

val n_params : t -> int

val forward : t -> Pnc_tensor.Tensor.t array -> Pnc_autodiff.Var.t
(** The training forward: time-major [steps] (one [batch x inputs]
    tensor per time step) to [batch x classes] logits (linear read-out
    of the final hidden state). *)

val eval :
  ?batch_size:int ->
  ?precision:[ `Exact | `Fast ] ->
  t ->
  Pnc_tensor.Tensor.t array ->
  Pnc_tensor.Tensor.t
(** The evaluation forward: {!forward}'s logits on plain tensors, with
    no autodiff nodes. [?batch_size] is resolved by {!Batch.resolve};
    the logits are bit-identical to the Var path for any batch size
    under [`Exact] (the default). [`Fast] substitutes
    {!Pnc_tensor.Fast_math.tanh} for the cell activations. *)
