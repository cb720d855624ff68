"""Multi-view graph convolutional embedding model for group-buying.

Forward pipeline per batch (recomputed over the full graph; desk-scale
instances make this cheap and it keeps gradients exact):

1. in-view propagation: L rounds of plain neighbor-mean smoothing inside the
   launch view and inside the join view, starting from the raw embeddings;
2. layer concatenation: each entity's L+1 per-layer vectors concatenated to
   width (L+1)*dim -- the "view-0" embeddings;
3. one cross-view round: six (mean -> affine -> activation) branches move
   information between views and between entity types, producing "view-1"
   embeddings of the same width; a branch whose neighborhood is empty
   contributes an exact zero vector, not activation(bias);
4. final embeddings: view-0 and view-1 blocks, scored as the sum of
   per-block inner products (identical to concatenating first);
5. prediction for (user m, item n): a (1-alpha)-weighted launch-view inner
   product plus alpha times the mean of friends' join-view inner products.

The backward pass mirrors the forward stage by stage over the saved
intermediates (the graph is static, so no general-purpose autodiff is
needed); every reduction has a fixed order, keeping runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields
from typing import NamedTuple

import numpy as np

from . import kernels
from .data import SocialGraph
from .graphs import HeteroGraphBundle
from .kernels import CSR

ACTIVATIONS = ("leaky_relu", "identity", "tanh")
MODEL_TYPES = ("gbgcn", "gbmf", "mf")


@dataclass
class Hyperparams:
    dim: int = 32
    num_layers: int = 2
    alpha: float = 0.6
    beta: float = 0.05
    activation: str = "leaky_relu"
    activation_slope: float = 0.2
    neg_ratio: int = 1
    l2_coeff: float = 1e-5
    social_reg_coeff: float = 1e-5
    batch_size: int = 4096
    epochs: int = 500
    pretrain_epochs: int = 50
    pretrain_lr: float = 1e-3
    # the ranking loss sums over batch terms, so workable rates scale inversely
    # with batch size; 1e-2 trains stably at batch_size=4096 on desk-scale data
    finetune_lr: float = 1e-2
    role_scores: bool = False
    renormalize_alpha: bool = False
    failed_participant_edges: bool = True
    eval_ks: tuple[int, ...] = (3, 5, 10, 20)

    def validate(self) -> list[str]:
        """Collect every config problem instead of stopping at the first."""
        problems = []
        if self.dim < 1:
            problems.append(f"dim must be >= 1, got {self.dim}")
        if self.num_layers < 0:
            problems.append(f"num_layers must be >= 0, got {self.num_layers}")
        if not 0.0 <= self.alpha <= 1.0:
            problems.append(f"alpha must be in [0, 1], got {self.alpha}")
        if self.beta < 0:
            problems.append(f"beta must be >= 0, got {self.beta}")
        if self.activation not in ACTIVATIONS:
            problems.append(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.activation_slope < 0:
            problems.append(f"activation_slope must be >= 0, got {self.activation_slope}")
        if self.neg_ratio < 1:
            problems.append(f"neg_ratio must be >= 1, got {self.neg_ratio}")
        if self.l2_coeff < 0:
            problems.append(f"l2_coeff must be >= 0, got {self.l2_coeff}")
        if self.social_reg_coeff < 0:
            problems.append(f"social_reg_coeff must be >= 0, got {self.social_reg_coeff}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            problems.append(f"epochs must be >= 0, got {self.epochs}")
        if self.pretrain_epochs < 0:
            problems.append(f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        if self.pretrain_lr <= 0:
            problems.append(f"pretrain_lr must be > 0, got {self.pretrain_lr}")
        if self.finetune_lr <= 0:
            problems.append(f"finetune_lr must be > 0, got {self.finetune_lr}")
        if not self.eval_ks or any(k < 1 for k in self.eval_ks):
            problems.append(f"eval_ks must be positive integers, got {self.eval_ks}")
        return problems

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        out["eval_ks"] = list(self.eval_ks)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparams":
        known = {f.name for f in dc_fields(cls)}
        kwargs = {k: v for k, v in d.items() if k in known}
        if "eval_ks" in kwargs:
            kwargs["eval_ks"] = tuple(int(k) for k in kwargs["eval_ks"])
        return cls(**kwargs)


# six cross-view branches: (name, target slot, source slot, bundle graph,
# whether the branch runs over that graph's transpose, weight suffix)
class BranchSpec(NamedTuple):
    name: str
    target: str
    source: str
    graph: str
    transposed: bool
    suffix: str

    def csr(self, bundle: HeteroGraphBundle) -> CSR:
        g = getattr(bundle, self.graph)
        return g.T if self.transposed else g


BRANCHES = (
    BranchSpec("launched_items_to_user", "user_launch", "item_launch", "launch", False, "item_to_user_launch"),
    BranchSpec("shared_to_users_to_user", "user_launch", "user_join", "share", False, "user_join_to_launch"),
    BranchSpec("launchers_to_item", "item_launch", "user_launch", "launch", True, "user_to_item_launch"),
    BranchSpec("joined_items_to_user", "user_join", "item_join", "join", False, "item_to_user_join"),
    BranchSpec("sharers_to_user", "user_join", "user_launch", "share", True, "user_launch_to_join"),
    BranchSpec("joiners_to_item", "item_join", "user_join", "join", True, "user_to_item_join"),
)


@dataclass
class ModelParams:
    """All trainable tensors. Cross-view transforms act on width (L+1)*dim."""

    user_emb: np.ndarray
    item_emb: np.ndarray
    w_item_to_user_launch: np.ndarray
    w_user_join_to_launch: np.ndarray
    w_user_to_item_launch: np.ndarray
    w_item_to_user_join: np.ndarray
    w_user_launch_to_join: np.ndarray
    w_user_to_item_join: np.ndarray
    b_item_to_user_launch: np.ndarray
    b_user_join_to_launch: np.ndarray
    b_user_to_item_launch: np.ndarray
    b_item_to_user_join: np.ndarray
    b_user_launch_to_join: np.ndarray
    b_user_to_item_join: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(**{k: v.astype(dtype) for k, v in self.tensors().items()})

    def copy(self) -> "ModelParams":
        return ModelParams(**{k: v.copy() for k, v in self.tensors().items()})


# serialization and optimizer iteration order
TENSOR_FIELDS = tuple(f.name for f in dc_fields(ModelParams))
FLAT_TENSOR_FIELDS = ("user_emb", "item_emb")


@dataclass
class FlatParams:
    """Embedding tables only -- the propagation-free models (mf, gbmf)."""

    user_emb: np.ndarray
    item_emb: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        return {"user_emb": self.user_emb, "item_emb": self.item_emb}

    def astype(self, dtype) -> "FlatParams":
        return FlatParams(self.user_emb.astype(dtype), self.item_emb.astype(dtype))

    def copy(self) -> "FlatParams":
        return FlatParams(self.user_emb.copy(), self.item_emb.copy())


def init_flat_params(num_users: int, num_items: int, dim: int, seed: int, dtype=np.float32) -> FlatParams:
    rng = np.random.default_rng(seed)
    return FlatParams(
        xavier_uniform(rng, num_users, dim, dtype), xavier_uniform(rng, num_items, dim, dtype)
    )


def xavier_uniform(rng: np.random.Generator, rows: int, cols: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols)).astype(dtype)


def init_params(
    num_users: int, num_items: int, hp: Hyperparams, seed: int, dtype=np.float32
) -> ModelParams:
    """Fan-based uniform init for every matrix; biases start at zero."""
    rng = np.random.default_rng(seed)
    width = (hp.num_layers + 1) * hp.dim
    kwargs: dict[str, np.ndarray] = {
        "user_emb": xavier_uniform(rng, num_users, hp.dim, dtype),
        "item_emb": xavier_uniform(rng, num_items, hp.dim, dtype),
    }
    for spec in BRANCHES:
        kwargs["w_" + spec.suffix] = xavier_uniform(rng, width, width, dtype)
        kwargs["b_" + spec.suffix] = np.zeros(width, dtype=dtype)
    return ModelParams(**kwargs)


# ---------------------------------------------------------------------------
# activations


def activate(z: np.ndarray, kind: str, slope: float) -> np.ndarray:
    if kind == "leaky_relu":
        return np.where(z > 0, z, slope * z)
    if kind == "identity":
        return z.copy()
    if kind == "tanh":
        return np.tanh(z)
    raise ValueError(f"unknown activation {kind!r}")


def activate_grad(z: np.ndarray, out: np.ndarray, kind: str, slope: float) -> np.ndarray:
    if kind == "leaky_relu":
        return np.where(z > 0, z.dtype.type(1.0), z.dtype.type(slope))
    if kind == "identity":
        return np.ones_like(z)
    if kind == "tanh":
        return 1.0 - out * out
    raise ValueError(f"unknown activation {kind!r}")


# ---------------------------------------------------------------------------
# forward


def propagate_in_view(
    graph: CSR, user_emb: np.ndarray, item_emb: np.ndarray, num_layers: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Neighbor-mean smoothing over a user -> item graph (items read ``graph.T``);
    layer l is built from both sides' layer l-1.

    Entities with no neighbors in the view stay at the zero vector from
    layer 1 onward. Layer 0 is the raw embedding.
    """
    user_layers = [user_emb]
    item_layers = [item_emb]
    for _ in range(num_layers):
        u_prev, i_prev = user_layers[-1], item_layers[-1]
        user_layers.append(graph.mean(i_prev))
        item_layers.append(graph.T.mean(u_prev))
    return user_layers, item_layers


def concat_layers(layers: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(layers, axis=1)


@dataclass
class Views:
    user_launch: np.ndarray
    item_launch: np.ndarray
    user_join: np.ndarray
    item_join: np.ndarray

    def get(self, slot: str) -> np.ndarray:
        return getattr(self, slot)


@dataclass
class BranchState:
    mean_in: np.ndarray   # neighborhood mean fed to the affine map
    pre_act: np.ndarray
    act_out: np.ndarray   # activation output before empty-row masking
    mask: np.ndarray      # rows with a non-empty neighborhood


def propagate_cross_view(
    bundle: HeteroGraphBundle, view0: Views, params: ModelParams, hp: Hyperparams
) -> tuple[Views, dict[str, BranchState]]:
    width = view0.user_launch.shape[1]
    dtype = view0.user_launch.dtype
    acc = {
        "user_launch": np.zeros((bundle.num_users, width), dtype=dtype),
        "item_launch": np.zeros((bundle.num_items, width), dtype=dtype),
        "user_join": np.zeros((bundle.num_users, width), dtype=dtype),
        "item_join": np.zeros((bundle.num_items, width), dtype=dtype),
    }
    branches: dict[str, BranchState] = {}
    for spec in BRANCHES:
        adj = spec.csr(bundle)
        a = adj.mean(view0.get(spec.source))
        z = a @ getattr(params, "w_" + spec.suffix) + getattr(params, "b_" + spec.suffix)
        s = activate(z, hp.activation, hp.activation_slope)
        mask = adj.degrees > 0
        s[~mask] = 0  # empty neighborhood contributes nothing, not activation(bias)
        branches[spec.name] = BranchState(a, z, s.copy(), mask)
        acc[spec.target] += s
    return Views(**acc), branches


@dataclass
class EmbeddingSet:
    """Final embeddings as per-stage blocks plus the scoring rule.

    Scores sum per-block inner products (equal to one inner product over the
    concatenation). ``friend_mean`` holds, per user, the mean of their
    friends' join-view blocks -- zero rows for friendless users, which makes
    the social term vanish for them. ``renormalize_alpha`` optionally scores
    friendless users with an unweighted launch term instead of (1-alpha).
    """

    user_launch: list[np.ndarray]
    item_launch: list[np.ndarray]
    user_join: list[np.ndarray]
    item_join: list[np.ndarray]
    friend_mean: list[np.ndarray]
    has_friends: np.ndarray
    alpha: float
    renormalize_alpha: bool = False
    _coef: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dtype = self.user_launch[0].dtype
        coef = np.full(self.num_users, 1.0 - self.alpha, dtype=dtype)
        if self.renormalize_alpha:
            coef[~self.has_friends] = dtype.type(1.0)
        self._coef = coef
        self._alpha_t = dtype.type(self.alpha)

    @property
    def num_users(self) -> int:
        return self.user_launch[0].shape[0]

    @property
    def num_items(self) -> int:
        return self.item_launch[0].shape[0]

    def score_items(self, user: int, items: np.ndarray) -> np.ndarray:
        items = np.asarray(items, dtype=np.int64)
        dtype = self.user_launch[0].dtype
        launch = np.zeros(items.shape[0], dtype=dtype)
        for bu, bi in zip(self.user_launch, self.item_launch):
            launch = launch + bi[items] @ bu[user]
        join = np.zeros(items.shape[0], dtype=dtype)
        for fm, bj in zip(self.friend_mean, self.item_join):
            join = join + bj[items] @ fm[user]
        return self._coef[user] * launch + self._alpha_t * join

    def predict(self, user: int, item: int) -> float:
        return float(self.score_items(user, np.asarray([item], dtype=np.int64))[0])

    def all_item_scores(self, user: int) -> np.ndarray:
        return self.score_items(user, np.arange(self.num_items, dtype=np.int64))

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        dtype = self.user_launch[0].dtype
        launch = np.zeros(users.shape[0], dtype=dtype)
        for bu, bi in zip(self.user_launch, self.item_launch):
            launch = launch + np.einsum("nd,nd->n", bu[users], bi[items])
        join = np.zeros(users.shape[0], dtype=dtype)
        for fm, bj in zip(self.friend_mean, self.item_join):
            join = join + np.einsum("nd,nd->n", fm[users], bj[items])
        return self._coef[users] * launch + self._alpha_t * join

    def score_pairs_join_view(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Direct join-view inner product, used by the role-scored loss variant."""
        dtype = self.user_launch[0].dtype
        out = np.zeros(users.shape[0], dtype=dtype)
        for bu, bj in zip(self.user_join, self.item_join):
            out = out + np.einsum("nd,nd->n", bu[users], bj[items])
        return out


@dataclass
class ScoreAdjoint:
    """Gradient buffers for each embedding block, mirroring EmbeddingSet."""

    d_user_launch: list[np.ndarray]
    d_item_launch: list[np.ndarray]
    d_user_join: list[np.ndarray]
    d_item_join: list[np.ndarray]
    d_friend_mean: list[np.ndarray]

    @classmethod
    def zeros(cls, emb: EmbeddingSet) -> "ScoreAdjoint":
        z = lambda blocks: [np.zeros_like(b) for b in blocks]
        return cls(
            z(emb.user_launch), z(emb.item_launch), z(emb.user_join), z(emb.item_join), z(emb.friend_mean)
        )


def score_pairs_backward(
    emb: EmbeddingSet, users: np.ndarray, items: np.ndarray, dy: np.ndarray, adj: ScoreAdjoint
) -> None:
    """Accumulate d(loss)/d(blocks) for composite-scored (user, item) pairs."""
    wl = emb._coef[users].astype(np.float64) * dy
    wj = emb.alpha * dy
    for bu, bi, d_bu, d_bi in zip(emb.user_launch, emb.item_launch, adj.d_user_launch, adj.d_item_launch):
        kernels.scatter_add_rows(d_bu, users, wl[:, None] * bi[items])
        kernels.scatter_add_rows(d_bi, items, wl[:, None] * bu[users])
    # friend-mean blocks exist only where the friend term has weight
    for fm, bj, d_fm, d_bj in zip(emb.friend_mean, emb.item_join, adj.d_friend_mean, adj.d_item_join):
        kernels.scatter_add_rows(d_fm, users, wj[:, None] * bj[items])
        kernels.scatter_add_rows(d_bj, items, wj[:, None] * fm[users])


def score_pairs_join_view_backward(
    emb: EmbeddingSet, users: np.ndarray, items: np.ndarray, dy: np.ndarray, adj: ScoreAdjoint
) -> None:
    for bi_idx in range(len(emb.user_join)):
        bu, bj = emb.user_join[bi_idx], emb.item_join[bi_idx]
        kernels.scatter_add_rows(adj.d_user_join[bi_idx], users, dy[:, None] * bj[items])
        kernels.scatter_add_rows(adj.d_item_join[bi_idx], items, dy[:, None] * bu[users])


@dataclass
class ForwardState:
    params: ModelParams
    hp: Hyperparams
    bundle: HeteroGraphBundle
    social: SocialGraph
    launch_user_layers: list[np.ndarray]
    launch_item_layers: list[np.ndarray]
    join_user_layers: list[np.ndarray]
    join_item_layers: list[np.ndarray]
    view0: Views
    view1: Views
    branches: dict[str, BranchState]
    emb: EmbeddingSet


def forward(
    bundle: HeteroGraphBundle, social: SocialGraph, params: ModelParams, hp: Hyperparams
) -> ForwardState:
    """Full propagation pass producing scoreable final embeddings."""
    lu, li = propagate_in_view(bundle.launch, params.user_emb, params.item_emb, hp.num_layers)
    ju, ji = propagate_in_view(bundle.join, params.user_emb, params.item_emb, hp.num_layers)
    view0 = Views(concat_layers(lu), concat_layers(li), concat_layers(ju), concat_layers(ji))
    view1, branches = propagate_cross_view(bundle, view0, params, hp)
    emb = EmbeddingSet(
        user_launch=[view0.user_launch, view1.user_launch],
        item_launch=[view0.item_launch, view1.item_launch],
        user_join=[view0.user_join, view1.user_join],
        item_join=[view0.item_join, view1.item_join],
        friend_mean=[social.mean(view0.user_join), social.mean(view1.user_join)],
        has_friends=social.degrees > 0,
        alpha=hp.alpha,
        renormalize_alpha=hp.renormalize_alpha,
    )
    return ForwardState(
        params, hp, bundle, social, lu, li, ju, ji, view0, view1, branches, emb
    )


def flat_embeddings(
    user_emb: np.ndarray, item_emb: np.ndarray, social: SocialGraph, alpha: float, renormalize_alpha: bool = False
) -> EmbeddingSet:
    """Propagation-free scorer over raw embeddings (pretraining and MF baselines).

    With ``alpha`` 0 the friend term has no weight, so no friend mean is built.
    """
    return EmbeddingSet(
        user_launch=[user_emb],
        item_launch=[item_emb],
        user_join=[user_emb],
        item_join=[item_emb],
        friend_mean=[social.mean(user_emb)] if alpha != 0.0 else [],
        has_friends=social.degrees > 0,
        alpha=alpha,
        renormalize_alpha=renormalize_alpha,
    )


# ---------------------------------------------------------------------------
# backward


def _fold_friend_mean(adj: ScoreAdjoint, social: SocialGraph, dtype) -> None:
    """Route friend-mean adjoints back onto the friends' join-view rows."""
    for d_fm, d_uj in zip(adj.d_friend_mean, adj.d_user_join):
        d_uj += social.mean_adjoint(d_fm, dtype)


def backward(state: ForwardState, adj: ScoreAdjoint, grads: dict[str, np.ndarray]) -> None:
    """Accumulate parameter gradients from embedding-block adjoints.

    Walks the forward stages in reverse: friend means, the six cross-view
    branches, then in-view smoothing layer by layer down to the raw tables.
    """
    hp, params, bundle = state.hp, state.params, state.bundle
    dtype = state.view0.user_launch.dtype
    _fold_friend_mean(adj, state.social, dtype)

    d0 = {
        "user_launch": adj.d_user_launch[0],
        "item_launch": adj.d_item_launch[0],
        "user_join": adj.d_user_join[0],
        "item_join": adj.d_item_join[0],
    }
    d1 = {
        "user_launch": adj.d_user_launch[1],
        "item_launch": adj.d_item_launch[1],
        "user_join": adj.d_user_join[1],
        "item_join": adj.d_item_join[1],
    }

    for spec in BRANCHES:
        bs = state.branches[spec.name]
        dz = d1[spec.target] * activate_grad(bs.pre_act, bs.act_out, hp.activation, hp.activation_slope)
        dz[~bs.mask] = 0
        grads["w_" + spec.suffix] += bs.mean_in.T @ dz
        grads["b_" + spec.suffix] += dz.sum(axis=0)
        da = dz @ getattr(params, "w_" + spec.suffix).T
        d0[spec.source] += spec.csr(bundle).mean_adjoint(da, dtype)

    d = hp.dim
    views = (("user_launch", "item_launch", bundle.launch), ("user_join", "item_join", bundle.join))
    for ukey, ikey, graph in views:
        du = [d0[ukey][:, l * d : (l + 1) * d] for l in range(hp.num_layers + 1)]
        di = [d0[ikey][:, l * d : (l + 1) * d] for l in range(hp.num_layers + 1)]
        for l in range(hp.num_layers, 0, -1):
            di[l - 1] += graph.mean_adjoint(du[l], dtype)
            du[l - 1] += graph.T.mean_adjoint(di[l], dtype)
        grads["user_emb"] += du[0]
        grads["item_emb"] += di[0]


def flat_backward(adj: ScoreAdjoint, social: SocialGraph, grads: dict[str, np.ndarray]) -> None:
    dtype = adj.d_user_launch[0].dtype
    _fold_friend_mean(adj, social, dtype)
    grads["user_emb"] += adj.d_user_launch[0] + adj.d_user_join[0]
    grads["item_emb"] += adj.d_item_launch[0] + adj.d_item_join[0]
