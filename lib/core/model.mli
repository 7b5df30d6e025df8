(** Uniform handle over the three model families compared in the paper:
    the baseline pTPNC circuit, the proposed ADAPT-pNC circuit, and the
    Elman RNN reference. *)

type t = Circuit of Network.t | Reference of Elman.t

val label : t -> string

val params : t -> Pnc_autodiff.Var.t list

val named_params : t -> (string * Pnc_autodiff.Var.t) list
(** Stable checkpoint path names for every trainable parameter; same
    order as {!params} (the persistence layer keys sections by these
    paths). *)

val n_params : t -> int

val logits : ?draw:Variation.draw -> t -> Pnc_tensor.Tensor.t -> Pnc_autodiff.Var.t
(** The training forward: [batch x time] to [batch x classes]. The
    draw is meaningful only for circuit models (the RNN has no physical
    components). *)

val eval :
  ?batch_size:int ->
  ?precision:[ `Exact | `Fast ] ->
  ?state_init:Filter_layer.state_init ->
  ?draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t ->
  Pnc_tensor.Tensor.t
(** The evaluation forward: {!logits} on plain tensors, with no
    autodiff nodes — bit-identical to [Var.value (logits ...)] under
    the same draw for every batch size under [`Exact] (the default).
    The draw is realized once and the batch runs through it block of
    rows at a time ([?batch_size] resolved by {!Batch.resolve} —
    explicit argument, else [ADAPT_PNC_BATCH], else one block); [`Fast]
    substitutes {!Pnc_tensor.Fast_math.tanh} (≤1e-7 absolute tanh
    error) for the activation transcendentals. [state_init] selects
    the filter initial-voltage semantics (default [`V0]; batch-size
    invariant under every value — see {!Network.eval}); ignored by the
    reference RNN, which has no filter state. Classes are
    [Pnc_tensor.Tensor.argmax_rows (eval ...)]. *)

val clamp : t -> unit
(** Printable-window projection; no-op for the reference RNN. *)

val is_circuit : t -> bool
