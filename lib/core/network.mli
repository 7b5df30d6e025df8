(** Printed temporal processing networks.

    A pTPB layer (Fig. 4) is a resistor crossbar followed by a bank of
    learnable low-pass filters and a printed tanh activation. Stacking
    two layers gives:

    - the baseline {b pTPNC} of prior work: first-order filters,
      trained without variation awareness;
    - the proposed {b ADAPT-pNC}: second-order learnable filters
      (SO-LF), trained variation-aware.

    The network processes a univariate (or multivariate) series one
    step at a time; class scores are the time-integrated outputs. *)

type arch = Ptpnc | Adapt

val arch_name : arch -> string

type t

val create :
  ?hidden:int -> Pnc_util.Rng.t -> arch -> inputs:int -> classes:int -> t
(** Two pTPB layers: [inputs -> hidden -> classes]. Default hidden
    width: 3 for [Ptpnc] (matching the small baseline circuits of
    Table III) and 6 for [Adapt] (the paper reports ≈1.9x devices). *)

val arch : t -> arch
val inputs : t -> int
val classes : t -> int
val hidden : t -> int
val params : t -> Pnc_autodiff.Var.t list

val named_params : t -> (string * Pnc_autodiff.Var.t) list
(** Stable checkpoint path names
    ([layer<i>/{crossbar,filter,ptanh}/<leaf>]); same order as
    {!params}. *)

val n_params : t -> int

val layers : t -> (Crossbar.t * Filter_layer.t * Ptanh.t) list
(** In order, for hardware costing and inspection. *)

val forward : draw:Variation.draw -> t -> Pnc_tensor.Tensor.t -> Pnc_autodiff.Var.t
(** [forward ~draw net x] runs the batch of series [x]
    ([batch x time], univariate) and returns the logits
    [batch x classes]: the time-average of the output voltages —
    physically an RC integrator per class output (accounted for by
    {!Hardware}). One component sample is
    drawn per call and shared across all time steps — the circuit is
    the same physical device throughout the sequence.

    Each layer records one tape node for the whole sequence, with a
    hand-written backpropagation-through-time adjoint whose gradients
    are bit-identical to differentiating the per-step graph (DESIGN.md,
    "The pTPB adjoint"); the realized component values stay ordinary
    tape nodes, so straight-through draws keep their semantics. *)

val forward_multi :
  draw:Variation.draw -> t -> Pnc_tensor.Tensor.t array -> Pnc_autodiff.Var.t
(** Multivariate variant: one [batch x inputs] tensor per time step. *)

type readout = Integrated | Last_step

val forward_readout :
  readout:readout -> draw:Variation.draw -> t -> Pnc_tensor.Tensor.t -> Pnc_autodiff.Var.t
(** {!forward} with a selectable read-out: [Integrated] (the default,
    time-averaged output) or [Last_step] (the final instant only) —
    used by the read-out ablation bench. *)

(** {1 Pure-tensor forward (no-grad evaluation path)}

    Same sampling order and floating-point operation sequence as the
    Var-based forwards above — logits are bit-identical under the same
    draw — but no autodiff nodes are allocated and the per-step kernels
    run in preallocated buffers. *)

val forward_t : draw:Variation.draw -> t -> Pnc_tensor.Tensor.t -> Pnc_tensor.Tensor.t

val forward_multi_t :
  draw:Variation.draw -> t -> Pnc_tensor.Tensor.t array -> Pnc_tensor.Tensor.t

val forward_readout_t :
  readout:readout -> draw:Variation.draw -> t -> Pnc_tensor.Tensor.t -> Pnc_tensor.Tensor.t

val forward_multi_selective_t :
  draw_crossbar:Variation.draw ->
  draw_filter:Variation.draw ->
  draw_act:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t array ->
  Pnc_tensor.Tensor.t

val forward_selective_t :
  draw_crossbar:Variation.draw ->
  draw_filter:Variation.draw ->
  draw_act:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t ->
  Pnc_tensor.Tensor.t
(** Forward with independent variation draws per component family —
    lets {!Sensitivity} attribute robustness loss to crossbar
    conductances, filter RC values or activation parameters separately.
    No autodiff nodes; safe inside a {!Pnc_util.Pool} task. *)

(** {1 Batched forwards}

    Twins of the tensor forwards above with a [?batch_size] knob
    (resolved by {!Batch.resolve}: explicit argument, else
    [ADAPT_PNC_BATCH], else the whole batch as one block). The
    variation draw is realized once per call and shared across all row
    blocks, so the block size is a pure performance knob — logits are
    bit-identical to the unbatched twin (and hence to the Var path) for
    every batch size.

    [?precision] selects the activation tier for the fused kernels:
    [`Exact] (the default) keeps every result bit-identical to the Var
    path; [`Fast] substitutes {!Pnc_tensor.Fast_math.tanh} (≤1e-7
    absolute tanh error) for the per-element transcendental. The knob
    affects arithmetic only — realization order, batching and shapes are
    unchanged.

    [?state_init] selects the filter initial-voltage semantics
    ({!Filter_layer.state_init}; default [`V0], the historical
    behaviour). Under [`Gaussian] the full-batch states are pre-drawn
    before chunking, so the result stays bit-identical for every batch
    size — like the draw, the initial state describes the physical
    situation, not the evaluation schedule. *)

val forward_batch_t :
  ?batch_size:int ->
  ?precision:[ `Exact | `Fast ] ->
  ?state_init:Filter_layer.state_init ->
  draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t ->
  Pnc_tensor.Tensor.t

val forward_multi_batch_t :
  ?batch_size:int ->
  ?precision:[ `Exact | `Fast ] ->
  ?state_init:Filter_layer.state_init ->
  draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t array ->
  Pnc_tensor.Tensor.t

val forward_selective_batch_t :
  ?batch_size:int ->
  ?precision:[ `Exact | `Fast ] ->
  draw_crossbar:Variation.draw ->
  draw_filter:Variation.draw ->
  draw_act:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t ->
  Pnc_tensor.Tensor.t

val predict : ?draw:Variation.draw -> t -> Pnc_tensor.Tensor.t -> int array
(** Argmax class per sample; deterministic unless a draw is given.
    Runs on the tensor fast path. *)

val predict_batch :
  ?batch_size:int ->
  ?precision:[ `Exact | `Fast ] ->
  ?state_init:Filter_layer.state_init ->
  ?draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t ->
  int array
(** {!predict} on the batched path. *)

val clamp : t -> unit
(** Project every component value into its printable window. *)
