"""GBGCN: multi-view graph convolutional embeddings for group-buying.

The forward pass is recomputed over the full graph per batch, which keeps
gradients exact; each graph mean takes the dense or the sparse path its
graph's shape favours (``kernels.CSR.runs_dense``):

1. in-view propagation: L rounds of plain neighbor-mean smoothing inside the
   launch view and inside the join view, starting from the raw embeddings;
2. layer concatenation: each entity's L+1 per-layer vectors concatenated to
   width (L+1)*dim -- the "view-0" embeddings;
3. one cross-view round: six (mean -> affine -> activation) branches move
   information between views and between entity types, producing "view-1"
   embeddings of the same width; a branch whose neighborhood is empty
   contributes an exact zero vector, not activation(bias);
4. final embeddings: view-0 and view-1 blocks of each view, which
   ``scoring.composite_embeddings`` scores.

The backward pass mirrors the forward stage by stage over the saved
intermediates, from the query blocks' adjoints down (the graph is static, so
no general-purpose autodiff is needed); every reduction has a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .config import Hyperparams
from .kernels import CSR
from .scoring import EmbeddingSet, ScoreAdjoint, composite_embeddings, launch_weights, xavier_uniform

if TYPE_CHECKING:  # annotations only
    from .data import SocialGraph
    from .graphs import HeteroGraphBundle

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

    def copy(self) -> "ModelParams":
        return ModelParams(**{k: v.copy() for k, v in self.tensors().items()})


# serialization and optimizer iteration order
TENSOR_FIELDS = tuple(f.name for f in dc_fields(ModelParams))


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


@dataclass
class Views:
    user_launch: np.ndarray
    item_launch: np.ndarray
    user_join: np.ndarray
    item_join: np.ndarray


@dataclass
class BranchState:
    mean_in: np.ndarray   # neighborhood mean fed to the affine map
    pre_act: np.ndarray
    act_out: np.ndarray   # activation output, empty rows masked to zero
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
        a = adj.mean(getattr(view0, spec.source))
        z = a @ getattr(params, "w_" + spec.suffix) + getattr(params, "b_" + spec.suffix)
        s = activate(z, hp.activation, hp.activation_slope)
        mask = adj.degrees > 0
        s[~mask] = 0  # empty neighborhood contributes nothing, not activation(bias)
        branches[spec.name] = BranchState(a, z, s, mask)
        acc[spec.target] += s
    return Views(**acc), branches


@dataclass
class ForwardState:
    params: ModelParams
    hp: Hyperparams
    bundle: HeteroGraphBundle
    social: SocialGraph
    branches: dict[str, BranchState]
    emb: EmbeddingSet


def forward(
    bundle: HeteroGraphBundle, social: SocialGraph, params: ModelParams, hp: Hyperparams
) -> ForwardState:
    """Full propagation pass producing scoreable final embeddings."""
    lu, li = propagate_in_view(bundle.launch, params.user_emb, params.item_emb, hp.num_layers)
    ju, ji = propagate_in_view(bundle.join, params.user_emb, params.item_emb, hp.num_layers)
    view0 = Views(*(np.concatenate(layers, axis=1) for layers in (lu, li, ju, ji)))
    view1, branches = propagate_cross_view(bundle, view0, params, hp)
    emb = composite_embeddings(
        [view0.user_launch, view1.user_launch], [view0.item_launch, view1.item_launch],
        [view0.user_join, view1.user_join], [view0.item_join, view1.item_join],
        social, hp.alpha, hp.renormalize_alpha,
    )
    return ForwardState(params, hp, bundle, social, branches, emb)


# ---------------------------------------------------------------------------
# backward


def backward(state: ForwardState, adj: ScoreAdjoint, grads: dict[str, np.ndarray]) -> None:
    """Accumulate parameter gradients from embedding-block adjoints.

    Walks the forward stages in reverse: the query blocks, the six
    cross-view branches, then in-view smoothing layer by layer down to the
    raw tables. A launch query block's float64 adjoint ``S`` reaches its view
    block as ``coef * S``, and a friend query block's reaches the friends'
    join-view rows as ``social.mean_adjoint(alpha * S)``, each rounded once.
    """
    hp, params, bundle, social = state.hp, state.params, state.bundle, state.social
    dtype = params.user_emb.dtype
    n = len(adj.d_query) // 2
    coef = launch_weights(social, hp.alpha, hp.renormalize_alpha, dtype)
    alpha = dtype.type(hp.alpha)
    blocks = {
        "user_launch": [(coef * s).astype(dtype) for s in adj.d_query[:n]],
        "item_launch": adj.d_items[:n],
        "user_join": [social.mean_adjoint(alpha * s, dtype) for s in adj.d_query[n:]],
        "item_join": adj.d_items[n:],
    }
    d0 = {slot: b[0] for slot, b in blocks.items()}
    d1 = {slot: b[1] for slot, b in blocks.items()}

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
