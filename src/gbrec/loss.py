"""Double-pairwise ranking loss for group-buying records.

Every record contributes a main pairwise term: the initiator should score
their launched item above a sampled negative. On top of that:

* successful records add one term per actual participant, each of whom
  should also rank the bought item above the negative;
* failed records add one term per *friend* of the initiator with the
  preference flipped (nobody joined, so friends are taken to prefer the
  sampled item over the failed one), down-weighted by ``beta``.

All terms share the form weight * softplus(y_low - y_high), evaluated in
float64 through ``np.logaddexp`` so large score gaps never produce infs.
Batch totals add an L2 penalty over all parameters and a social smoothness
penalty pulling each user's raw embedding toward the mean of their friends'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import BehaviorRecord, SocialGraph
from .model import EmbeddingSet, Hyperparams, ScoreAdjoint, score_pairs_backward, score_pairs_join_view_backward


def softplus(x):
    """log(1 + e^x), safe for large |x|; -log(sigmoid(g)) == softplus(-g)."""
    return np.logaddexp(0.0, x)


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


# ---------------------------------------------------------------------------
# scalar reference implementations (also the per-record public API)


def loss_failed(
    record: BehaviorRecord,
    neg_item: int,
    score: Callable[[int, int], float],
    social: SocialGraph,
    beta: float,
) -> float:
    """Loss for a failed launch against one sampled negative item."""
    gap = score(record.initiator, record.item) - score(record.initiator, neg_item)
    total = float(softplus(-gap))
    for f in social.friends(record.initiator):
        flipped = score(int(f), neg_item) - score(int(f), record.item)
        total += beta * float(softplus(-flipped))
    return total


def loss_success(
    record: BehaviorRecord, neg_item: int, score: Callable[[int, int], float]
) -> float:
    """Loss for a successful launch against one sampled negative item."""
    gap = score(record.initiator, record.item) - score(record.initiator, neg_item)
    total = float(softplus(-gap))
    for p in record.participants:
        gap_p = score(p, record.item) - score(p, neg_item)
        total += float(softplus(-gap_p))
    return total


# ---------------------------------------------------------------------------
# vectorized batch terms


@dataclass
class TermSet:
    """Flat arrays describing every pairwise term of a batch.

    ``hi`` is the item that should win the comparison, ``lo`` the one that
    should lose. ``aux`` marks participant/friend terms (scored through the
    join view when the role-scored variant is enabled); ``pos`` marks terms
    belonging to successful records, for the loss breakdown.
    """

    users: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    weight: np.ndarray
    aux: np.ndarray
    pos: np.ndarray

    def __len__(self) -> int:
        return self.users.shape[0]


def build_terms(
    records: list[BehaviorRecord],
    negatives: np.ndarray,
    social: SocialGraph,
    beta: float,
) -> TermSet:
    """Expand (record, negative) pairs into flat comparison terms.

    ``negatives`` has one row per record and one column per sampled negative;
    each column yields an independent set of terms for its record.
    """
    negatives = np.atleast_2d(np.asarray(negatives, dtype=np.int64))
    users: list[int] = []
    hi: list[int] = []
    lo: list[int] = []
    weight: list[float] = []
    aux: list[bool] = []
    pos: list[bool] = []
    for rec, row in zip(records, negatives):
        for neg in row:
            neg = int(neg)
            users.append(rec.initiator)
            hi.append(rec.item)
            lo.append(neg)
            weight.append(1.0)
            aux.append(False)
            pos.append(rec.success)
            if rec.success:
                for p in rec.participants:
                    users.append(p)
                    hi.append(rec.item)
                    lo.append(neg)
                    weight.append(1.0)
                    aux.append(True)
                    pos.append(True)
            elif beta != 0.0:
                for f in social.friends(rec.initiator):
                    users.append(int(f))
                    hi.append(neg)          # flipped: the failed item should lose
                    lo.append(rec.item)
                    weight.append(beta)
                    aux.append(True)
                    pos.append(False)
    return TermSet(
        users=np.asarray(users, dtype=np.int64),
        hi=np.asarray(hi, dtype=np.int64),
        lo=np.asarray(lo, dtype=np.int64),
        weight=np.asarray(weight, dtype=np.float64),
        aux=np.asarray(aux, dtype=bool),
        pos=np.asarray(pos, dtype=bool),
    )


def score_terms(terms: TermSet, emb: EmbeddingSet, role_scores: bool) -> tuple[np.ndarray, np.ndarray]:
    """Score the hi and lo side of every term, honoring the scoring variant."""
    y_hi = np.empty(len(terms), dtype=np.float64)
    y_lo = np.empty(len(terms), dtype=np.float64)
    direct = terms.aux if role_scores else np.zeros(len(terms), dtype=bool)
    comp = ~direct
    if comp.any():
        y_hi[comp] = emb.score_pairs(terms.users[comp], terms.hi[comp]).astype(np.float64)
        y_lo[comp] = emb.score_pairs(terms.users[comp], terms.lo[comp]).astype(np.float64)
    if direct.any():
        y_hi[direct] = emb.score_pairs_join_view(terms.users[direct], terms.hi[direct]).astype(np.float64)
        y_lo[direct] = emb.score_pairs_join_view(terms.users[direct], terms.lo[direct]).astype(np.float64)
    return y_hi, y_lo


@dataclass
class LossBreakdown:
    loss_pos: float
    loss_neg: float
    l2_term: float
    social_term: float

    @property
    def total(self) -> float:
        return self.loss_pos + self.loss_neg + self.l2_term + self.social_term


def l2_value(tensors: dict[str, np.ndarray], coeff: float) -> float:
    if coeff == 0.0:
        return 0.0
    return coeff * float(sum(np.sum(t.astype(np.float64) ** 2) for t in tensors.values()))


def social_residual(user_emb: np.ndarray, social: SocialGraph, coeff: float) -> np.ndarray | None:
    """Per-user gap to the friend-mean embedding; zero rows for friendless users.

    None when the penalty is off (``coeff`` 0). Computed once per batch and
    shared by the penalty's value and gradient.
    """
    if coeff == 0.0:
        return None
    r = (user_emb - social.mean(user_emb)).astype(np.float64)
    r[social.degrees == 0] = 0.0
    return r


def social_value(resid: np.ndarray | None, coeff: float) -> float:
    return 0.0 if resid is None else coeff * float(np.sum(resid * resid))


def regularizer_grads(
    tensors: dict[str, np.ndarray],
    social: SocialGraph,
    resid: np.ndarray | None,
    hp: Hyperparams,
    grads: dict[str, np.ndarray],
) -> None:
    """Add d(l2 + social)/d(params) for every trainable tensor present.

    ``resid`` is the batch's ``social_residual``.
    """
    if hp.l2_coeff != 0.0:
        for name, t in tensors.items():
            if name in grads:
                grads[name] += (2.0 * hp.l2_coeff) * t
    if resid is not None and "user_emb" in grads:
        dtype = tensors["user_emb"].dtype
        grads["user_emb"] += (2.0 * hp.social_reg_coeff * resid).astype(dtype)
        grads["user_emb"] += social.mean_adjoint((-2.0 * hp.social_reg_coeff) * resid, dtype)


def breakdown_from_terms(
    terms: TermSet,
    y_hi: np.ndarray,
    y_lo: np.ndarray,
    tensors: dict[str, np.ndarray],
    resid: np.ndarray | None,
    hp: Hyperparams,
) -> LossBreakdown:
    """Loss values of a scored batch; ``resid`` is its ``social_residual``."""
    per_term = terms.weight * softplus(y_lo - y_hi)
    return LossBreakdown(
        loss_pos=float(per_term[terms.pos].sum()),
        loss_neg=float(per_term[~terms.pos].sum()),
        l2_term=l2_value(tensors, hp.l2_coeff),
        social_term=social_value(resid, hp.social_reg_coeff),
    )


def total_loss(
    records: list[BehaviorRecord],
    negatives: np.ndarray,
    emb: EmbeddingSet,
    social: SocialGraph,
    tensors: dict[str, np.ndarray],
    hp: Hyperparams,
) -> LossBreakdown:
    """Batch objective: ranking terms plus both regularizers."""
    terms = build_terms(records, negatives, social, hp.beta)
    y_hi, y_lo = score_terms(terms, emb, hp.role_scores)
    resid = social_residual(tensors["user_emb"], social, hp.social_reg_coeff)
    return breakdown_from_terms(terms, y_hi, y_lo, tensors, resid, hp)


def loss_terms_backward(
    terms: TermSet,
    y_hi: np.ndarray,
    y_lo: np.ndarray,
    emb: EmbeddingSet,
    adj: ScoreAdjoint,
    role_scores: bool,
) -> None:
    """Push d(sum of term losses)/d(scores) into the embedding adjoints."""
    dgap = terms.weight * sigmoid(y_lo - y_hi)  # d/d(y_lo); d/d(y_hi) is its negation
    direct = terms.aux if role_scores else np.zeros(len(terms), dtype=bool)
    comp = ~direct
    if comp.any():
        score_pairs_backward(emb, terms.users[comp], terms.lo[comp], dgap[comp], adj)
        score_pairs_backward(emb, terms.users[comp], terms.hi[comp], -dgap[comp], adj)
    if direct.any():
        score_pairs_join_view_backward(emb, terms.users[direct], terms.lo[direct], dgap[direct], adj)
        score_pairs_join_view_backward(emb, terms.users[direct], terms.hi[direct], -dgap[direct], adj)
