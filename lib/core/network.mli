(** Printed temporal processing networks.

    A pTPB layer (Fig. 4) is a resistor crossbar followed by a bank of
    learnable low-pass filters and a printed tanh activation. Stacking
    two layers gives:

    - the baseline {b pTPNC} of prior work: first-order filters,
      trained without variation awareness;
    - the proposed {b ADAPT-pNC}: second-order learnable filters
      (SO-LF), trained variation-aware.

    The network processes a univariate (or multivariate) series one
    step at a time; class scores are the time-integrated outputs. Each
    network has one training forward ({!forward}, on the autodiff tape)
    and one evaluation forward ({!eval}, on plain tensors). *)

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

type readout = Integrated | Last_step

val forward :
  ?readout:readout -> draw:Variation.draw -> t -> Pnc_tensor.Tensor.t array -> Pnc_autodiff.Var.t
(** The training forward. [forward ~draw net steps] runs the
    time-major [steps] (one [batch x inputs] tensor per time step; a
    [batch x time] univariate series is {!Pnc_tensor.Tensor.columns})
    and returns the logits [batch x classes]. The default read-out,
    [Integrated], is the time-average of the output voltages —
    physically an RC integrator per class output (accounted for by
    {!Hardware}); [Last_step] reads the final instant only, for the
    read-out ablation bench. One component sample is drawn per call
    and shared across all time steps — the circuit is the same physical
    device throughout the sequence.

    Each layer records one tape node for the whole sequence, with a
    hand-written backpropagation-through-time adjoint whose gradients
    are bit-identical to differentiating the per-step graph (DESIGN.md,
    "The pTPB adjoint"); the realized component values stay ordinary
    tape nodes, so straight-through draws keep their semantics. *)

(** {1 Evaluation} *)

type draws = { crossbar : Variation.draw; filter : Variation.draw; act : Variation.draw }
(** One variation draw per component family: crossbar conductances,
    filter RC values and activation parameters. Independent draws let
    {!Sensitivity} attribute robustness loss to one family at a time. *)

val shared : Variation.draw -> draws
(** The same draw for every family — the physical circuit under one
    component sample, as {!forward} sees it. *)

val eval :
  ?batch_size:int ->
  ?precision:[ `Exact | `Fast ] ->
  ?state_init:Filter_layer.state_init ->
  draws:draws ->
  t ->
  Pnc_tensor.Tensor.t array ->
  Pnc_tensor.Tensor.t
(** The evaluation forward: the integrated-read-out logits of {!forward}
    on plain tensors. Same sampling order and floating-point operation
    sequence — under [eval ~draws:(shared d)] the logits are
    bit-identical to [Var.value (forward ~draw:d ...)] — but no
    autodiff nodes are allocated (safe inside a {!Pnc_util.Pool} task)
    and the per-step kernels run in preallocated buffers.

    [?batch_size] (resolved by {!Batch.resolve}: explicit argument,
    else [ADAPT_PNC_BATCH], else the whole batch as one block) only
    chooses how many rows each kernel call carries: the draws are
    realized once per call and shared across all row blocks, so the
    logits are bit-identical for every batch size.

    [?precision] selects the activation tier: [`Exact] (the default)
    keeps every result bit-identical to the Var path; [`Fast]
    substitutes {!Pnc_tensor.Fast_math.tanh} (≤1e-7 absolute tanh
    error) for the per-element transcendental. The knob affects
    arithmetic only — realization order, batching and shapes are
    unchanged.

    [?state_init] selects the filter initial-voltage semantics
    ({!Filter_layer.state_init}; default [`V0], the historical
    behaviour). The full-batch states are drawn once before chunking,
    so under [`Gaussian] too the result is bit-identical for every
    batch size — like the draw, the initial state describes the
    physical situation, not the evaluation schedule. *)

val clamp : t -> unit
(** Project every component value into its printable window. *)
