"""Multi-view graph convolutional embedding model for group-buying.

Forward pipeline per batch, recomputed over the full graph, which keeps
gradients exact. That stays cheap because each product takes the path its
shapes favour: a graph mean is one product with the graph's row-normalised
adjacency matrix when the graph stores at least ``kernels.DENSE_MIN_FILL``
of its cells and has fewer than ``kernels.DENSE_MAX_CELLS`` cells, and a
sparse reduction otherwise; a batch of ``n`` terms is scored through one
``P x Q`` score matrix when ``P * Q <= SCORE_DENSE_RATIO * n``, and term by
term otherwise. Desk-scale graphs and batches take the dense products:

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

The flat scorer (gbmf, mf and GBGCN's pretraining) scores raw embeddings,
where the launch and join item tables are both ``item_emb``. Its score is then
one inner product ``<q[m], item_emb[n]>`` with the query row ``q = coef *
user_emb + alpha * social.mean(user_emb)``, ``coef`` being each user's launch
weight; ``flat_embeddings`` builds ``q`` once per batch, so every flat score,
gap and adjoint is one product, and ``flat_backward`` chains ``q``'s adjoint
back to ``user_emb``.

The backward pass mirrors the forward stage by stage over the saved
intermediates (the graph is static, so no general-purpose autodiff is
needed); every reduction has a fixed order, keeping runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields
from functools import reduce
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import kernels
from .config import Hyperparams
from .kernels import CSR

if TYPE_CHECKING:  # annotations only: a flat scorer needs neither module
    from .data import SocialGraph
    from .graphs import HeteroGraphBundle

# terms per chunk of EmbeddingSet.score_gaps, so its gathered rows stay in
# cache: at width 48, chunks of 4096 or more score a desk batch 2-3x slower
SCORE_CHUNK = 2048

# the score pass runs through one P x Q score matrix when P * Q <=
# SCORE_DENSE_RATIO * terms, and term by term otherwise. Measured with
# benchmarks/bench_kernels.py --role score_pass (gaps plus backward, on
# 500 x 200 and 1000 x 500): the flat scorer (one query block of width 16,
# --blocks 1) runs dense 1.6-1.8x faster at 8 cells per term, breaks even
# between 12 and 16 (dense 1.0-1.2x slower at 16), and runs 1.4-2x slower
# dense at 24 and 1.7-2.9x at 32; GBGCN's two blocks of width 48 run dense
# 1.6-4x faster up to 32 and break even between 32 and 128. The ratio sits at
# the flat scorer's break-even, so neither scorer runs much slower dense;
# desk batches have about 2 cells per term, gbmf-wide's about 58
SCORE_DENSE_RATIO = 16


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
FLAT_TENSOR_FIELDS = ("user_emb", "item_emb")


@dataclass
class FlatParams:
    """Embedding tables only -- the propagation-free models (mf, gbmf)."""

    user_emb: np.ndarray
    item_emb: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        return {"user_emb": self.user_emb, "item_emb": self.item_emb}

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


def launch_weights(has_friends: np.ndarray, alpha: float, renormalize_alpha: bool, dtype) -> np.ndarray:
    """Each user's weight on the launch term in ``dtype``: ``1 - alpha``, or 1
    for a friendless user under ``renormalize_alpha``."""
    dtype = np.dtype(dtype)
    coef = np.full(has_friends.shape[0], 1.0 - alpha, dtype=dtype)
    if renormalize_alpha:
        coef[~has_friends] = dtype.type(1.0)
    return coef


def _block_sum(products):
    """The sum of per-block products, with no zero to start from."""
    return reduce(np.add, products)


@dataclass
class EmbeddingSet:
    """Final embeddings as per-stage blocks plus the scoring rule.

    Scores sum per-block inner products (equal to one inner product over the
    concatenation). ``friend_mean`` holds, per user, the mean of their
    friends' join-view blocks -- zero rows for friendless users, which makes
    the social term vanish for them. ``renormalize_alpha`` optionally scores
    friendless users with an unweighted launch term instead of (1-alpha).
    A set with no friend-mean blocks has ``alpha`` 0, so every launch weight
    is 1 and it scores by its launch products alone.
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
        if not self.friend_mean and self.alpha != 0.0:
            raise ValueError(f"a set without friend-mean blocks needs alpha 0, got {self.alpha}")
        dtype = self.user_launch[0].dtype
        self._coef = launch_weights(self.has_friends, self.alpha, self.renormalize_alpha, dtype)
        self._alpha_t = dtype.type(self.alpha)

    @property
    def num_users(self) -> int:
        return self.user_launch[0].shape[0]

    @property
    def num_items(self) -> int:
        return self.item_launch[0].shape[0]

    def score_items(self, user: int, items: np.ndarray) -> np.ndarray:
        items = np.asarray(items, dtype=np.int64)
        launch = _block_sum(bi[items] @ bu[user] for bu, bi in zip(self.user_launch, self.item_launch))
        if not self.friend_mean:
            return launch
        join = _block_sum(bj[items] @ fm[user] for fm, bj in zip(self.friend_mean, self.item_join))
        return self._coef[user] * launch + self._alpha_t * join

    def score_users(self, users: np.ndarray) -> np.ndarray:
        """Every item's score for each of ``users``: a ``(len(users), num_items)``
        matrix, one matmul per block, by the arithmetic of ``score_items``."""
        users = np.asarray(users, dtype=np.int64)
        launch = _block_sum(bu[users] @ bi.T for bu, bi in zip(self.user_launch, self.item_launch))
        if not self.friend_mean:
            return launch
        join = _block_sum(fm[users] @ bj.T for fm, bj in zip(self.friend_mean, self.item_join))
        return self._coef[users, None] * launch + self._alpha_t * join

    def dense_score_pass(self, terms: int) -> bool:
        """Whether a pass over ``terms`` composite-scored terms goes through one
        ``num_users x num_items`` score matrix (see ``SCORE_DENSE_RATIO``)."""
        return self.num_users * self.num_items <= SCORE_DENSE_RATIO * terms

    def predict(self, user: int, item: int) -> float:
        return float(self.score_items(user, np.asarray([item], dtype=np.int64))[0])

    def all_item_scores(self, user: int) -> np.ndarray:
        return self.score_items(user, np.arange(self.num_items, dtype=np.int64))

    def score_gaps(self, users: np.ndarray, lo: np.ndarray, hi: np.ndarray, join_view: bool = False) -> np.ndarray:
        """Each term's float64 gap ``score(u, lo) - score(u, hi)``, ``SCORE_CHUNK`` terms at a time:
        ``coef[u] * sum_b <bu_b[u], bi_b[lo] - bi_b[hi]> + alpha * sum_b <fm_b[u], bj_b[lo] - bj_b[hi]>``
        (the launch sum alone without friend-mean blocks), or with ``join_view`` the role-scored
        variant's ``sum_b <uj_b[u], bj_b[lo] - bj_b[hi]>``. Each product gathers its rows once
        and runs in the blocks' dtype.
        A composite pass that ``dense_score_pass`` picks is ``S[u, lo] - S[u, hi]``
        over ``S = score_users(every user)``, in the blocks' dtype.
        """
        if not join_view and self.dense_score_pass(users.shape[0]):
            scores = self.score_users(np.arange(self.num_users))
            return scores[users, lo].astype(np.float64) - scores[users, hi]
        if join_view:
            groups = [(self.user_join, self.item_join)]
        else:
            groups = [(self.user_launch, self.item_launch)]
            if self.friend_mean:
                groups.append((self.friend_mean, self.item_join))
        gap = np.empty(users.shape[0], dtype=np.float64)
        for c0 in range(0, users.shape[0], SCORE_CHUNK):
            u, l, h = (a[c0 : c0 + SCORE_CHUNK] for a in (users, lo, hi))
            dots = [
                _block_sum(np.einsum("nd,nd->n", bu[u], bi[l] - bi[h]) for bu, bi in zip(ubs, ibs))
                for ubs, ibs in groups
            ]
            gap[c0 : c0 + SCORE_CHUNK] = dots[0] if len(dots) == 1 else self._coef[u] * dots[0] + self._alpha_t * dots[1]
        return gap


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
    emb: EmbeddingSet, users: np.ndarray, hi: np.ndarray, lo: np.ndarray, dgap: np.ndarray, adj: ScoreAdjoint
) -> None:
    """Accumulate d(loss)/d(blocks) for composite-scored gaps ``score(u, lo) - score(u, hi)``:
    one signed scatter per side, of ``dgap * (table[lo] - table[hi])`` into ``users``
    and of ``dgap * table[users]`` into ``lo`` minus ``hi``, gathering inside the kernel.
    A pass that ``emb.dense_score_pass`` picks runs as two products per block instead.
    """
    if emb.dense_score_pass(users.shape[0]):
        _score_pairs_backward_dense(emb, users, hi, lo, dgap, adj)
        return
    wl = emb._coef[users].astype(np.float64) * dgap
    wj = emb.alpha * dgap
    # friend-mean blocks exist only where the friend term has weight
    user_side = [(d, bi, wl) for d, bi in zip(adj.d_user_launch, emb.item_launch)]
    user_side += [(d, bj, wj) for d, bj in zip(adj.d_friend_mean, emb.item_join)]
    item_side = [(d, bu, wl) for d, bu in zip(adj.d_item_launch, emb.user_launch)]
    item_side += [(d, fm, wj) for d, fm in zip(adj.d_item_join, emb.friend_mean)]
    kernels.scatter_add_rows(user_side, users, lo, minus_gather=hi)
    kernels.scatter_add_rows(item_side, lo, users, minus_idx=hi)


def _score_pairs_backward_dense(
    emb: EmbeddingSet, users: np.ndarray, hi: np.ndarray, lo: np.ndarray, dgap: np.ndarray, adj: ScoreAdjoint
) -> None:
    """``score_pairs_backward`` through the ``P x Q`` matrix ``W`` of summed
    ``dgap`` per (user, item) cell, ``lo`` cells added and ``hi`` cells
    subtracted in float64. Each block's adjoint is then one product in the
    blocks' dtype: ``(coef W) @ item`` and ``(coef W).T @ user`` for the launch
    blocks, ``(alpha W) @ item_join`` and ``(alpha W).T @ friend_mean`` for the
    friend blocks. A set without friend blocks has every ``coef`` 1, and takes
    ``W`` as it is.
    """
    cells = emb.num_users * emb.num_items
    key = users * emb.num_items
    w = np.bincount(key + lo, dgap, minlength=cells) - np.bincount(key + hi, dgap, minlength=cells)
    w = w.reshape(emb.num_users, emb.num_items)
    dtype = emb.user_launch[0].dtype
    wl = (emb._coef[:, None] * w if emb.friend_mean else w).astype(dtype)
    for d_u, d_i, bu, bi in zip(adj.d_user_launch, adj.d_item_launch, emb.user_launch, emb.item_launch):
        d_u += wl @ bi
        d_i += wl.T @ bu
    if not emb.friend_mean:
        return
    wj = (emb.alpha * w).astype(dtype)
    for d_fm, d_ij, fm, bj in zip(adj.d_friend_mean, adj.d_item_join, emb.friend_mean, emb.item_join):
        d_fm += wj @ bj
        d_ij += wj.T @ fm


def score_pairs_join_view_backward(
    emb: EmbeddingSet, users: np.ndarray, hi: np.ndarray, lo: np.ndarray, dgap: np.ndarray, adj: ScoreAdjoint
) -> None:
    """``score_pairs_backward`` for the direct join-view gaps of the role-scored variant."""
    user_side = [(d, bj, dgap) for d, bj in zip(adj.d_user_join, emb.item_join)]
    item_side = [(d, bu, dgap) for d, bu in zip(adj.d_item_join, emb.user_join)]
    kernels.scatter_add_rows(user_side, users, lo, minus_gather=hi)
    kernels.scatter_add_rows(item_side, lo, users, minus_idx=hi)


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
    return ForwardState(params, hp, bundle, social, branches, emb)


def flat_embeddings(
    user_emb: np.ndarray, item_emb: np.ndarray, social: SocialGraph, alpha: float, renormalize_alpha: bool = False,
    friend_mean: np.ndarray | None = None,
) -> EmbeddingSet:
    """Propagation-free scorer over raw embeddings (pretraining and MF baselines).

    Its one launch block is the query row ``q = coef * user_emb + alpha *
    social.mean(user_emb)`` (``coef`` from ``launch_weights``) and its launch
    item block is ``item_emb``, with no friend-mean blocks and alpha 0 inside
    the set: each score is the one product ``<q[u], item_emb[i]>``. The
    join-view blocks, which only the role-scored variant reads, are the raw
    tables. ``friend_mean`` is ``social.mean(user_emb)`` when the caller
    already holds it. With ``alpha`` 0 the friend term has no weight, so no
    friend mean is built and ``q`` is ``user_emb`` itself.
    """
    has_friends = social.degrees > 0
    query = user_emb
    if alpha != 0.0:
        if friend_mean is None:
            friend_mean = social.mean(user_emb)
        coef = launch_weights(has_friends, alpha, renormalize_alpha, user_emb.dtype)
        query = coef[:, None] * user_emb + user_emb.dtype.type(alpha) * friend_mean
    return EmbeddingSet(
        user_launch=[query],
        item_launch=[item_emb],
        user_join=[user_emb],
        item_join=[item_emb],
        friend_mean=[],
        has_friends=has_friends,
        alpha=0.0,
    )


# ---------------------------------------------------------------------------
# backward


def backward(state: ForwardState, adj: ScoreAdjoint, grads: dict[str, np.ndarray]) -> None:
    """Accumulate parameter gradients from embedding-block adjoints.

    Walks the forward stages in reverse: friend means, the six cross-view
    branches, then in-view smoothing layer by layer down to the raw tables.
    """
    hp, params, bundle = state.hp, state.params, state.bundle
    dtype = params.user_emb.dtype
    # route friend-mean adjoints back onto the friends' join-view rows
    for d_fm, d_uj in zip(adj.d_friend_mean, adj.d_user_join):
        d_uj += state.social.mean_adjoint(d_fm, dtype)

    slots = ("user_launch", "item_launch", "user_join", "item_join")
    d0 = {slot: getattr(adj, "d_" + slot)[0] for slot in slots}
    d1 = {slot: getattr(adj, "d_" + slot)[1] for slot in slots}

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


def flat_backward(
    adj: ScoreAdjoint, social: SocialGraph, alpha: float, renormalize_alpha: bool, grads: dict[str, np.ndarray]
) -> None:
    """Accumulate the raw tables' gradients from a ``flat_embeddings`` set's adjoints.

    The query rows' adjoint ``S`` (best held in float64) reaches ``user_emb``
    as ``coef * S`` on each user's own row plus ``social.mean_adjoint(alpha *
    S)`` on their friends' rows, each rounded once; the join-view user block
    is ``user_emb`` and both item blocks are ``item_emb``.
    """
    dtype = grads["user_emb"].dtype
    s = adj.d_user_launch[0]
    coef = launch_weights(social.degrees > 0, alpha, renormalize_alpha, dtype)
    d_user = (coef[:, None] * s).astype(dtype)
    if alpha != 0.0:
        d_user += social.mean_adjoint(dtype.type(alpha) * s, dtype)
    grads["user_emb"] += d_user + adj.d_user_join[0]
    grads["item_emb"] += adj.d_item_launch[0] + adj.d_item_join[0]
