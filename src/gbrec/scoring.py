"""The one scoring rule, its score pass and its adjoints.

Every scorer scores user m and item n as a sum of per-block inner products
``sum_b <query_b[m], items_b[n]>``: the paper's (1-alpha)-weighted launch-view
product plus alpha times the mean of friends' join-view products, with each
user's launch weight ``coef`` and alpha folded into the query blocks (the
mean of friends' products is the product with the friends' mean). GBGCN's
query blocks are ``coef * user_launch_b`` and ``alpha *
social.mean(user_join_b)``, against ``item_launch_b`` and ``item_join_b``
(``composite_embeddings``). The flat scorer (gbmf, mf and GBGCN's
pretraining) is the one-block case over raw embeddings, one query row ``q =
coef * user_emb + alpha * social.mean(user_emb)`` against ``item_emb``
(``flat_embeddings``). Every score, gap and adjoint is then one product per
block; ``model.backward`` and ``flat_backward`` chain the query blocks'
adjoints back through ``coef``, ``alpha`` and the friend mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from . import kernels

if TYPE_CHECKING:  # annotations only
    from .data import SocialGraph

# terms per chunk of EmbeddingSet.score_gaps, so its gathered rows stay in
# cache: at width 48, chunks of 4096 or more score a desk batch 2-3x slower
SCORE_CHUNK = 2048

# the score pass runs through one P x Q score matrix when P * Q <=
# SCORE_DENSE_RATIO * terms, and term by term otherwise. Measured with
# benchmarks/bench_kernels.py --role score_pass (gaps plus backward, on
# 500 x 200 and 1000 x 500): the flat scorer (one query block of width 16,
# --blocks 1) runs dense 1.6-1.8x faster at 8 cells per term, breaks even
# between 12 and 16 (dense 1.0-1.2x slower at 16), and runs 1.4-2x slower
# dense at 24 and 1.7-2.9x at 32; GBGCN's four query blocks of width 48 (the
# launch blocks and the friend means of views 0 and 1) run dense 2.6-12x
# faster up to 32 and break even between 32 and 128 on 1000 x 500 (on
# 500 x 200 dense is still 1.5x faster at 128). The ratio sits at
# the flat scorer's break-even, so neither scorer runs much slower dense;
# desk batches have about 2 cells per term, gbmf-wide's about 58
SCORE_DENSE_RATIO = 16

# serialization and optimizer iteration order of the flat models
FLAT_TENSOR_FIELDS = ("user_emb", "item_emb")


@dataclass
class FlatParams:
    """Embedding tables only -- the propagation-free models (mf, gbmf)."""

    user_emb: np.ndarray
    item_emb: np.ndarray

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


def launch_weights(social: SocialGraph, alpha: float, renormalize_alpha: bool, dtype) -> np.ndarray:
    """Each user's weight on the launch term, a column in ``dtype``: ``1 - alpha``,
    or 1 for a friendless user under ``renormalize_alpha``."""
    dtype = np.dtype(dtype)
    coef = np.full((social.num_rows, 1), 1.0 - alpha, dtype=dtype)
    if renormalize_alpha:
        coef[social.degrees == 0] = dtype.type(1.0)
    return coef


def _block_sum(products):
    """The sum of per-block products, with no zero to start from."""
    return reduce(np.add, products)


@dataclass
class EmbeddingSet:
    """Final embeddings as per-view blocks, plus the query and item blocks
    that every score reads.

    ``user_launch`` to ``item_join`` are the model's final embeddings, one
    block per stage, kept for inspection; no score reads them. A score is
    ``sum_b <query_b[u], items_b[i]>``. ``composite_embeddings`` and
    ``flat_embeddings`` build the query blocks with the launch weight and
    alpha folded in.
    """

    user_launch: list[np.ndarray]
    item_launch: list[np.ndarray]
    user_join: list[np.ndarray]
    item_join: list[np.ndarray]
    query: list[np.ndarray]
    items: list[np.ndarray]

    @property
    def num_users(self) -> int:
        return self.query[0].shape[0]

    @property
    def num_items(self) -> int:
        return self.items[0].shape[0]

    def score_users(self, users: np.ndarray) -> np.ndarray:
        """Every item's score for each of ``users``: a ``(len(users), num_items)``
        matrix, one matmul per block. Its cells equal ``predict``'s up to
        rounding only: BLAS may sum a matrix-matrix product in another order
        than a vector dot, or than the same product over another number of
        rows, so near-tied items can come out in another order."""
        users = np.asarray(users, dtype=np.int64)
        return _block_sum(q[users] @ bi.T for q, bi in zip(self.query, self.items))

    def dense_score_pass(self, terms: int) -> bool:
        """Whether a pass over ``terms`` composite-scored terms goes through one
        ``num_users x num_items`` score matrix (see ``SCORE_DENSE_RATIO``)."""
        return self.num_users * self.num_items <= SCORE_DENSE_RATIO * terms

    def predict(self, user: int, item: int) -> float:
        """One score, a vector dot per block. No command calls it: criterion 03
        asserts its bits against the sum of dots it builds itself."""
        return float(_block_sum(bi[item] @ q[user] for q, bi in zip(self.query, self.items)))

    def score_gaps(self, users: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Each term's float64 gap ``score(u, lo) - score(u, hi)``, ``SCORE_CHUNK`` terms at a time:
        ``sum_b <query_b[u], items_b[lo] - items_b[hi]>``. Each product gathers its rows once
        and runs in the blocks' dtype.
        A pass that ``dense_score_pass`` picks is ``S[u, lo] - S[u, hi]``
        over ``S = score_users(every user)``, in the blocks' dtype.
        """
        if self.dense_score_pass(users.shape[0]):
            scores = self.score_users(np.arange(self.num_users))
            return scores[users, lo].astype(np.float64) - scores[users, hi]
        gap = np.empty(users.shape[0], dtype=np.float64)
        for c0 in range(0, users.shape[0], SCORE_CHUNK):
            u, l, h = (a[c0 : c0 + SCORE_CHUNK] for a in (users, lo, hi))
            gap[c0 : c0 + SCORE_CHUNK] = _block_sum(
                np.einsum("nd,nd->n", q[u], bi[l] - bi[h]) for q, bi in zip(self.query, self.items)
            )
        return gap


@dataclass
class ScoreAdjoint:
    """Gradient buffers mirroring EmbeddingSet's query and item blocks, the
    only blocks a score reads. The query blocks' are float64, since each
    backward scales them by the launch weight and alpha before they are
    rounded; the item blocks' are in the blocks' dtype."""

    d_query: list[np.ndarray]
    d_items: list[np.ndarray]

    @classmethod
    def zeros(cls, emb: EmbeddingSet) -> "ScoreAdjoint":
        return cls([np.zeros(q.shape) for q in emb.query], [np.zeros_like(b) for b in emb.items])


def score_pairs_backward(
    emb: EmbeddingSet, users: np.ndarray, hi: np.ndarray, lo: np.ndarray, dgap: np.ndarray, adj: ScoreAdjoint
) -> None:
    """Accumulate d(loss)/d(blocks) for gaps ``score(u, lo) - score(u, hi)``:
    one signed scatter per side, of ``dgap * (items_b[lo] - items_b[hi])`` into
    ``users`` and of ``dgap * query_b[users]`` into ``lo`` minus ``hi``,
    gathering inside the kernel.

    A pass that ``emb.dense_score_pass`` picks runs through the ``P x Q``
    matrix ``W`` of summed ``dgap`` per (user, item) cell instead, ``lo``
    cells added and ``hi`` cells subtracted in float64, then cast once to the
    blocks' dtype: two products per block, ``W @ items_b`` and ``W.T @ query_b``.
    """
    if emb.dense_score_pass(users.shape[0]):
        cells = emb.num_users * emb.num_items
        key = users * emb.num_items
        w = np.bincount(key + lo, dgap, minlength=cells) - np.bincount(key + hi, dgap, minlength=cells)
        w = w.reshape(emb.num_users, emb.num_items).astype(emb.items[0].dtype)
        for d_q, d_i, q, bi in zip(adj.d_query, adj.d_items, emb.query, emb.items):
            d_q += w @ bi
            d_i += w.T @ q
        return
    kernels.scatter_add_rows([(d, bi, dgap) for d, bi in zip(adj.d_query, emb.items)], users, lo, minus_gather=hi)
    kernels.scatter_add_rows([(d, q, dgap) for d, q in zip(adj.d_items, emb.query)], lo, users, minus_idx=hi)


def composite_embeddings(
    user_launch: list[np.ndarray], item_launch: list[np.ndarray], user_join: list[np.ndarray],
    item_join: list[np.ndarray], social: SocialGraph, alpha: float, renormalize_alpha: bool = False,
) -> EmbeddingSet:
    """GBGCN's scorer over its final view blocks.

    The query blocks are ``coef * user_launch_b`` (``coef`` from
    ``launch_weights``), then ``alpha * social.mean(user_join_b)``, each
    rounded to the blocks' dtype, against ``item_launch_b``, then
    ``item_join_b``. A friendless user's friend mean is zero, so the social
    term vanishes for them. With ``alpha`` 0 every ``coef`` is 1 and every
    friend query block zero, so a score is its launch products' sum bit for bit.
    """
    dtype = user_launch[0].dtype
    coef = launch_weights(social, alpha, renormalize_alpha, dtype)
    query = [coef * bu for bu in user_launch] + [dtype.type(alpha) * social.mean(bu) for bu in user_join]
    return EmbeddingSet(user_launch, item_launch, user_join, item_join, query, item_launch + item_join)


def flat_embeddings(
    user_emb: np.ndarray, item_emb: np.ndarray, social: SocialGraph, alpha: float, renormalize_alpha: bool = False,
    friend_mean: np.ndarray | None = None,
) -> EmbeddingSet:
    """Propagation-free scorer over raw embeddings (pretraining and MF baselines).

    Its one query block is the row ``q = coef * user_emb + alpha *
    social.mean(user_emb)`` (``coef`` from ``launch_weights``) and its one
    item block is ``item_emb``: each score is the one product ``<q[u],
    item_emb[i]>``. The view blocks are the raw tables. ``friend_mean`` is
    ``social.mean(user_emb)`` when the caller already holds it. With
    ``alpha`` 0 the friend term has no weight, so no friend mean is built and
    ``q`` is ``user_emb`` itself.
    """
    query = user_emb
    if alpha != 0.0:
        if friend_mean is None:
            friend_mean = social.mean(user_emb)
        coef = launch_weights(social, alpha, renormalize_alpha, user_emb.dtype)
        query = coef * user_emb + user_emb.dtype.type(alpha) * friend_mean
    return EmbeddingSet([user_emb], [item_emb], [user_emb], [item_emb], [query], [item_emb])


def flat_backward(
    adj: ScoreAdjoint, social: SocialGraph, alpha: float, renormalize_alpha: bool,
    d_friend_mean: np.ndarray | None, grads: dict[str, np.ndarray],
) -> None:
    """Accumulate the raw tables' gradients from a ``flat_embeddings`` set's adjoints.

    The query rows' float64 adjoint ``S`` reaches each user's own row as ``coef
    * S``, and ``alpha * S`` plus ``d_friend_mean`` (the float64 adjoint of
    ``social.mean(user_emb)`` from outside the scorer, or None) reaches their
    friends' rows in one ``social.mean_adjoint``, each rounded once.
    """
    dtype = grads["user_emb"].dtype
    s = adj.d_query[0]
    d_user = (launch_weights(social, alpha, renormalize_alpha, dtype) * s).astype(dtype)
    if alpha != 0.0:
        scored = dtype.type(alpha) * s
        d_friend_mean = scored if d_friend_mean is None else scored + d_friend_mean
    if d_friend_mean is not None:
        d_user += social.mean_adjoint(d_friend_mean, dtype)
    grads["user_emb"] += d_user
    grads["item_emb"] += adj.d_items[0]
