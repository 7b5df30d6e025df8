(** Learnable printed resistor crossbar (Fig. 3a, Eq. 1).

    Each connection carries a signed surrogate parameter θ: its
    magnitude is the printed conductance in units of the maximum
    printable crossbar conductance (so |θ| ∈ (0, 1]); a negative sign
    means the input passes through an inverter (Fig. 3c) before its
    weight resistor. The circuit computes

      V_out = (Σᵢ θᵢ Vᵢ + θ_b·V_b) / (Σᵢ |θᵢ| + |θ_b| + g_d)

    which is differentiable almost everywhere, so θ is trained
    directly. Under process variation every θ is multiplied by an
    ε factor from the active {!Variation.draw}. *)

type t

val create : Pnc_util.Rng.t -> inputs:int -> outputs:int -> t
val inputs : t -> int
val outputs : t -> int

val params : t -> Pnc_autodiff.Var.t list
(** [theta; theta_b] — handed to the optimizer. *)

val named_params : t -> (string * Pnc_autodiff.Var.t) list
(** Stable checkpoint path names ([theta], [theta_b]); same order as
    {!params}. *)

type realization = {
  theta_eff : Pnc_autodiff.Var.t;  (** θ ⊙ ε, [inputs x outputs] *)
  bias_num : Pnc_autodiff.Var.t;  (** V_b·θ_b ⊙ ε, [1 x outputs] *)
  denominator : Pnc_autodiff.Var.t;  (** Σᵢ |θᵢ| + |θ_b| + g_d, [1 x outputs] *)
}
(** One physical instance of the crossbar: effective conductances with
    ε folded in (or the straight-through fold when the draw is marked
    [ste]), shared across all time steps of a sequence. A time step
    maps [x] to [(x·theta_eff + bias_num) / denominator]; {!Network}
    runs that per-step map, with its adjoint, inside its fused layer
    node. *)

val realize : draw:Variation.draw -> t -> realization
(** Takes a fresh ε sample from [draw]: theta first, then the bias. *)

type realization_t
(** Pure-tensor realization for the no-grad evaluation path; consumes
    the draw's random stream exactly like {!realize} and produces
    bit-identical outputs without building autodiff nodes. *)

val realize_t : draw:Variation.draw -> t -> realization_t

val apply_t_into : dst:Pnc_tensor.Tensor.t -> realization_t -> Pnc_tensor.Tensor.t -> unit
(** Writes the [batch x outputs] crossbar response into [dst]
    (allocation-free; [dst] must not alias the input). *)

val apply_batch_t : ?block:int -> realization_t -> Pnc_tensor.Tensor.t -> Pnc_tensor.Tensor.t
(** Batched twin of {!apply_t_into}: maps [batch x inputs] to
    [batch x outputs] block of rows at a time (default: one block)
    through zero-copy row views — bit-identical for any [block]. *)

val kernel_t :
  realization_t -> Pnc_tensor.Tensor.t * Pnc_tensor.Tensor.t * Pnc_tensor.Tensor.t
(** [(theta_eff, bias_num, 1/denominator)] — the raw coefficient
    tensors backing {!apply_t_into}, exposed so {!Network} can fuse the
    bias-plus-normalization step into its single-pass layer kernel.
    Read-only views; mutating them voids the parity guarantees. *)

val sample_eps : draw:Variation.draw -> t -> Pnc_tensor.Tensor.t * Pnc_tensor.Tensor.t
(** One joint ε sample (theta, bias) matching this crossbar's shape. *)

val theta_values : t -> Pnc_tensor.Tensor.t
(** Current surrogate weights (inputs x outputs), for hardware
    costing. *)

val bias_values : t -> Pnc_tensor.Tensor.t

val g_dummy : float
(** Normalized dummy conductance g_d added to the denominator. *)

val clamp : t -> unit
(** Project parameters back into the printable window (applied after
    each optimizer step). *)
