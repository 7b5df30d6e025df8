(** Reverse-mode automatic differentiation over {!Pnc_tensor.Tensor}.

    A {!t} is a node of a dynamically built computation DAG. The
    combinators record, for each parent, a closure mapping the output
    gradient to that parent's gradient contribution; a {!custom} node
    records one closure returning every parent's gradient at once.
    {!backward} seeds the output with ones and propagates in reverse
    creation order (node ids grow monotonically, so decreasing id is a
    valid reverse topological order for any DAG built by these
    constructors).

    The engine is the PyTorch-autograd substitute used to train every
    model in the paper. The printed circuits train through one custom
    node per (pTPB layer, Monte-Carlo draw) with a hand-written adjoint
    ([Network], see DESIGN.md); their variation realization and loss,
    and the Elman RNN reference, use the combinators. Gradients are
    property-tested against central finite differences in
    [test/test_autodiff.ml]. *)

type t

val value : t -> Pnc_tensor.Tensor.t
val grad : t -> Pnc_tensor.Tensor.t
(** Accumulated gradient; a fresh zeros tensor if none has been
    accumulated. Optimizer hot paths should prefer {!grad_opt}. *)

val grad_opt : t -> Pnc_tensor.Tensor.t option
(** Accumulated gradient without allocating: [None] until {!backward}
    reaches the node (and again after {!zero_grad}). *)

val requires_grad : t -> bool

(** {1 No-grad mode}

    Under {!with_no_grad}, every operation (and {!custom}) returns a
    constant-like node — no parents recorded, nothing pushed on the
    tape, [requires_grad] false — so evaluation-only code retains no
    graph. The evaluation paths in [lib/core] run on plain tensors and
    never build [Var] nodes; this mode only matters to callers that run
    a training forward for its value. *)

val no_grad : bool ref
val with_no_grad : (unit -> 'a) -> 'a

val nodes_created : unit -> int
(** Total [Var] records ever created (monotonic counter). Used by tests
    to assert that evaluation fast paths allocate zero nodes. *)

val tape_recorded : unit -> int
(** Total nodes ever recorded on the backward tape (monotonic). Stays
    flat under {!with_no_grad} and across pure-tensor evaluation. *)

(** {1 Leaves} *)

val param : Pnc_tensor.Tensor.t -> t
(** Trainable leaf: receives a gradient and is updated by optimizers. *)

val const : Pnc_tensor.Tensor.t -> t
(** Non-trainable leaf (inputs, sampled variation factors, targets). *)

val scalar : float -> t
(** Constant [1 x 1] node. *)

val zero_grad : t -> unit
(** Reset the accumulated gradient of a leaf to zeros. *)

(** {1 Elementwise binary (equal shapes)} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t

val ste_mul : t -> Pnc_tensor.Tensor.t -> t
(** [ste_mul v eps] forwards [v ⊙ eps] (bit-identical to
    [mul v (const eps)]) but backpropagates the straight-through
    estimator: the incoming gradient passes to [v] unscaled
    (dL/dv := dL/d(v⊙eps)). Used by noise-injection training, where the
    forward pass sees the perturbed parameters but the update is
    applied to the clean ones. *)

(** {1 Row-vector broadcast: [m x n] op [1 x n]} *)

val add_rv : t -> t -> t

(** {1 Unary} *)

val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val tanh : t -> t
val sigmoid : t -> t
val relu : t -> t
val exp : t -> t
val log : t -> t
(** Requires strictly positive values. *)

val abs : t -> t
(** Subgradient 0 at 0. *)

val softplus : t -> t
(** [log (1 + exp x)], numerically stable; used to keep physical
    component values (resistances, capacitances) strictly positive. *)

val sqr : t -> t
val reciprocal : t -> t

(** {1 Linear algebra and reductions} *)

val matmul : t -> t -> t
val transpose : t -> t
val sum : t -> t
(** Sum of all elements, as a [1 x 1] node. *)

val mean : t -> t
val sum_rows : t -> t
(** [m x n -> 1 x n]. *)

val concat_cols : t list -> t
(** Horizontal concatenation of matrices with equal row counts. *)

(** {1 Custom nodes} *)

val custom :
  Pnc_tensor.Tensor.t -> t array -> (Pnc_tensor.Tensor.t -> Pnc_tensor.Tensor.t option array) -> t
(** [custom value parents backward] records one node whose adjoint is
    hand-written: [backward g] receives the node's accumulated gradient
    [g] (same shape as [value]) and returns one entry per parent, in
    [parents] order — [Some] that parent's gradient contribution, or
    [None] for no contribution. It may consult {!requires_grad} to skip
    work for parents that need no gradient (their entries are ignored
    anyway). Contributions are accumulated like any other edge's (the
    first copied, later ones added), so they may be views of the
    callback's own buffers. [backward] runs at most once per
    {!backward} pass that reaches the node, in the tape's reverse
    creation order like every other node. *)

(** {1 Backward pass} *)

val backward : t -> unit
(** Seeds the node (any shape; seeded with ones) and accumulates
    gradients into every reachable leaf with [requires_grad]. Interior
    nodes are recorded on a global tape at creation, so the pass is a
    single reverse walk of the tape — no per-call reachability
    collection or sort. Multiple calls accumulate; call {!zero_grad} on
    the leaves between steps. *)

val n_nodes : t -> int
(** Number of distinct nodes reachable from [t] (diagnostics). *)
