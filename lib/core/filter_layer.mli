(** Learnable printed low-pass filter banks: first-order (the baseline
    pTPNC of prior work) and the paper's second-order SO-LF.

    Each of the [features] channels owns its own printed resistor(s)
    and capacitor(s). Resistances and capacitances are trained
    separately (the paper's stated difference from prior work, which
    learned only the RC product) through normalized parameters
    r_norm = R / R_max and c_norm = C / C_max, and the discrete update

      V[k] = a · V[k−1] + b · V_in[k],
      a = RC / (µRC + Δt), b = Δt / (µRC + Δt)     (Eq. 10–11)

    is unrolled over the sequence. The coupling factor µ and
    the initial voltage V₀ are non-trainable random variables sampled
    per {!Variation.draw}; component variation multiplies R and C by
    ε factors. *)

type order = First | Second

type t

val create : Pnc_util.Rng.t -> order -> features:int -> t
val order : t -> order
val features : t -> int
val params : t -> Pnc_autodiff.Var.t list

val named_params : t -> (string * Pnc_autodiff.Var.t) list
(** Stable checkpoint path names ([stage<i>/r_norm], [stage<i>/c_norm]);
    same order as {!params}. *)

(** {1 Per-forward-pass realization}

    One physical sample of the filter bank: coefficient nodes with ε,
    drift and µ folded in, plus the sampled initial voltages. Realize
    once per forward pass; {!Network} steps the bank through the
    sequence, with its adjoint, inside its fused layer node. *)

type stage_real = {
  a : Pnc_autodiff.Var.t;  (** [1 x features]: RC / (µRC + Δt) *)
  b : Pnc_autodiff.Var.t;  (** [1 x features]: Δt / (µRC + Δt) *)
  v0 : Pnc_tensor.Tensor.t;  (** [1 x features] sampled initial voltages *)
}
(** One stage: [V[k] = V[k−1] ∘ a + V_in[k] ∘ b], starting from [v0]
    in every batch row. *)

type realization = { stage_reals : stage_real array }
(** One entry per stage, input side first. *)

val realize : draw:Variation.draw -> t -> realization

(** {1 Pure-tensor realization (no-grad evaluation path)}

    Consumes the draw's random stream exactly like {!realize} and steps
    through the same floating-point update in place, without building
    autodiff nodes. *)

type realization_t

val realize_t : draw:Variation.draw -> t -> realization_t

type state_t = Pnc_tensor.Tensor.t array
(** One [batch x features] voltage tensor per stage, mutated in place
    by {!Network}'s layer kernel. *)

type state_init = [ `V0 | `Zero | `Gaussian of Pnc_util.Rng.t * float ]
(** Initial-voltage semantics for a fresh (or reused) state:
    - [`V0] (the default, and the historical behaviour): every batch
      row starts from the draw's sampled initial voltages — the same
      physical power-up transient for each sample;
    - [`Zero]: the fully settled circuit (all capacitors discharged);
    - [`Gaussian (rng, sigma)]: an independent V[0] ~ N(0, sigma²) per
      (row, channel, stage) — the sliding-window regime of the
      exemplar LearnableFilter, where each window meets the filter
      mid-transient. The stream is consumed stage-major then
      row-major. *)

val reset_state_t : ?init:state_init -> realization_t -> state_t -> unit
(** Refill an existing state in place — the explicit entry point for
    callers that re-run a realization over many windows (instead of
    re-calling {!init_state_t} with ad-hoc conventions). A full-batch
    reset followed by row-sliced views is bit-identical to resetting
    each slice in turn only under [`V0]/[`Zero]; under [`Gaussian] the
    stream order makes the {e full-batch} reset the canonical one (the
    network evaluation pre-draws full states for exactly this reason). *)

val init_state_t : ?init:state_init -> realization_t -> batch:int -> state_t
(** Allocate and fill a fresh state; [init] defaults to [`V0], making
    this bit-identical to the historical entry point. *)

val kernel_t :
  realization_t -> (Pnc_tensor.Tensor.t * Pnc_tensor.Tensor.t) array
(** Per-stage [(a, b)] coefficient rows (the state update is
    [s' = s ∘ a + x ∘ b]), exposed so {!Network} can fuse the stage
    updates into its single-pass layer kernel. Read-only views. *)

(** {1 Physical values} *)

val r_values : t -> float array array
(** [r_values f].(stage).(channel) in ohms; one stage for first-order,
    two for second-order. *)

val c_values : t -> float array array
(** Capacitances in farads, same indexing. *)

val cutoff_hz : t -> float array
(** Current per-channel −3 dB cutoff of the (ideal) filter. *)

val clamp : t -> unit
(** Project R and C back into the printable windows. *)
