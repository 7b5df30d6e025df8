(** Learnable printed tanh-like activation (Fig. 3b).

    ptanh(V) = η₁ + η₂ · tanh((V − η₃) · η₄), with per-neuron η
    parameters determined in hardware by the component values
    [R₁, R₂, T₁, T₂] of the activation circuit. The η are trained
    directly (as in the authors' prior pNC work) and perturbed
    multiplicatively under process variation. *)

type t

val create : Pnc_util.Rng.t -> features:int -> t
val features : t -> int
val params : t -> Pnc_autodiff.Var.t list

val named_params : t -> (string * Pnc_autodiff.Var.t) list
(** Stable checkpoint path names ([eta1] .. [eta4]); same order as
    {!params}. *)

val sample_eps : draw:Variation.draw -> t -> Pnc_tensor.Tensor.t array

type realization = {
  e1 : Pnc_autodiff.Var.t;
  e2 : Pnc_autodiff.Var.t;
  e3 : Pnc_autodiff.Var.t;
  e4 : Pnc_autodiff.Var.t;
}
(** One physical instance: the [1 x features] rows η₁..η₄ with ε
    folded in (straight-through when the draw is marked [ste]), shared
    across the time steps of a sequence. {!Network} applies it, with
    its adjoint, inside its fused layer node. *)

val realize : draw:Variation.draw -> t -> realization

type realization_t
(** Pure-tensor realization for the no-grad evaluation path. *)

val realize_t : draw:Variation.draw -> t -> realization_t

val apply_t_into :
  ?precision:[ `Exact | `Fast ] ->
  dst:Pnc_tensor.Tensor.t ->
  realization_t ->
  Pnc_tensor.Tensor.t ->
  unit
(** Writes ptanh of [x] into [dst] elementwise ([dst] may alias [x]).
    [`Exact] (the default) uses [Stdlib.tanh] and is bit-identical to
    the Var path; [`Fast] substitutes {!Pnc_tensor.Fast_math.tanh}
    (≤1e-7 absolute tanh error, so ≤|η₂|·1e-7 ≤ 1e-7 per output
    element) for the single transcendental. *)

val apply_batch_t :
  ?precision:[ `Exact | `Fast ] ->
  ?block:int ->
  realization_t ->
  Pnc_tensor.Tensor.t ->
  Pnc_tensor.Tensor.t
(** Batched twin of {!apply_t_into}: applies the realized activation to
    [x] block of rows by block of rows (default: one block) through
    zero-copy row views. Bit-identical to the unblocked kernel at the
    same [precision] for any [block]. *)

val kernel_t :
  realization_t ->
  Pnc_tensor.Tensor.t * Pnc_tensor.Tensor.t * Pnc_tensor.Tensor.t * Pnc_tensor.Tensor.t
(** The realized (η₁, η₂, η₃, η₄) coefficient rows backing
    {!apply_t_into}, exposed so {!Network} can fuse the activation into
    its single-pass layer kernel. Read-only views. *)

val eta_values : t -> Pnc_tensor.Tensor.t array
(** Current η₁..η₄ rows, for inspection and hardware costing. *)

val clamp : t -> unit
(** Keep the η in circuit-realizable windows: |η₁| ≤ 1, η₂ ∈ [0.2, 1],
    |η₃| ≤ 1, η₄ ∈ [0.5, 6]. *)
