"""Double-pairwise ranking loss for group-buying records.

Every record contributes a main pairwise term: the initiator should score
their launched item above a sampled negative. On top of that:

* successful records add one term per actual participant, each of whom
  should also rank the bought item above the negative;
* failed records add one term per *friend* of the initiator with the
  preference flipped (nobody joined, so friends are taken to prefer the
  sampled item over the failed one), down-weighted by ``beta``.

All terms share the form weight · softplus(gap), where gap = y_low - y_high is
scored directly, once per term; it is evaluated in float64 through
``np.logaddexp`` so large gaps never produce infs.
Batch totals add an L2 penalty over all parameters and a social smoothness
penalty pulling each user's raw embedding toward the mean of their friends'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Hyperparams
from .data import BehaviorLog, SocialGraph
from .scoring import EmbeddingSet, ScoreAdjoint, score_pairs_backward


def softplus(x):
    """log(1 + e^x), safe for large |x|; -log(sigmoid(g)) == softplus(-g)."""
    return np.logaddexp(0.0, x)


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


# ---------------------------------------------------------------------------
# vectorized batch terms


@dataclass
class TermSet:
    """Flat arrays describing every pairwise term of a batch.

    ``hi`` is the item that should win the comparison, ``lo`` the one that
    should lose. Every term, the initiator's, a participant's or a flipped
    friend's, is scored by the one rule of ``scoring``. ``pos`` marks terms
    belonging to successful records, for the loss breakdown.
    """

    users: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    weight: np.ndarray
    pos: np.ndarray

    def __len__(self) -> int:
        return self.users.shape[0]


def build_terms(
    batch: BehaviorLog,
    negatives: np.ndarray,
    social: SocialGraph,
    beta: float,
) -> TermSet:
    """Expand (record, negative) pairs into flat comparison terms.

    ``negatives`` has one row per record and one column per sampled negative;
    each column yields an independent block of terms for its record: the
    initiator's term, then one per participant of a successful record, or one
    per friend of a failed record's initiator (flipped, weight ``beta``; none
    when ``beta`` is 0). Blocks follow record order, then column order.
    ``negatives`` is an int64 array of shape ``(len(batch), k)``.
    """
    k = negatives.shape[1]
    success = batch.success
    num_friends = social.degrees[batch.initiator] if beta != 0.0 else 0
    sizes = np.repeat(1 + np.where(success, batch.num_participants, num_friends), k)
    starts = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
    t = np.arange(block.shape[0], dtype=np.int64) - starts[block] - 1  # -1: the initiator's term
    rec = block // k
    aux = t >= 0  # a participant's or a friend's term
    pos = success[rec]
    users = batch.initiator[rec]
    joined = aux & pos
    users[joined] = batch.part_indices[batch.part_indptr[rec[joined]] + t[joined]]
    failed = aux & ~pos
    users[failed] = social.indices[social.indptr[users[failed]] + t[failed]]
    item = batch.item[rec]
    neg = negatives.ravel()[block]
    return TermSet(
        users=users,
        hi=np.where(failed, neg, item),  # flipped: the failed item should lose
        lo=np.where(failed, item, neg),
        weight=np.where(failed, float(beta), 1.0),
        pos=pos,
    )


def score_terms(terms: TermSet, emb: EmbeddingSet) -> np.ndarray:
    """Each term's float64 gap ``score(u, lo) - score(u, hi)``."""
    return emb.score_gaps(terms.users, terms.lo, terms.hi)


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


def social_residual(
    user_emb: np.ndarray, social: SocialGraph, coeff: float, friend_mean: np.ndarray | None
) -> np.ndarray | None:
    """Per-user gap to the friend-mean embedding; zero rows for friendless users.

    None when the penalty is off (``coeff`` 0). Computed once per batch and
    shared by the penalty's value and gradient. ``friend_mean`` is
    ``social.mean(user_emb)``, which the caller may leave None when
    ``coeff`` is 0.
    """
    if coeff == 0.0:
        return None
    r = (user_emb - friend_mean).astype(np.float64)
    r[social.degrees == 0] = 0.0
    return r


def social_value(resid: np.ndarray | None, coeff: float) -> float:
    return 0.0 if resid is None else coeff * float(np.sum(resid * resid))


def regularizer_grads(
    tensors: dict[str, np.ndarray], resid: np.ndarray | None, hp: Hyperparams, grads: dict[str, np.ndarray]
) -> None:
    """Add d(l2 + social)/d(params) for every trainable tensor, but for the
    social penalty's path through the friend mean (``friend_mean_adjoint``).
    ``resid`` is the batch's ``social_residual``; ``grads`` holds every
    tensor of ``tensors``."""
    if hp.l2_coeff != 0.0:
        for name, t in tensors.items():
            grads[name] += (2.0 * hp.l2_coeff) * t
    if resid is not None:
        grads["user_emb"] += (2.0 * hp.social_reg_coeff * resid).astype(tensors["user_emb"].dtype)


def friend_mean_adjoint(resid: np.ndarray | None, coeff: float) -> np.ndarray | None:
    """The social penalty's float64 adjoint with respect to ``social.mean(user_emb)``:
    ``-2 * coeff * resid``, or None when the penalty is off."""
    return None if resid is None else (-2.0 * coeff) * resid


def breakdown_from_terms(
    terms: TermSet,
    gap: np.ndarray,
    tensors: dict[str, np.ndarray],
    resid: np.ndarray | None,
    hp: Hyperparams,
) -> LossBreakdown:
    """Loss values of a scored batch; ``resid`` is its ``social_residual``."""
    per_term = terms.weight * softplus(gap)
    return LossBreakdown(
        loss_pos=float(per_term[terms.pos].sum()),
        loss_neg=float(per_term[~terms.pos].sum()),
        l2_term=l2_value(tensors, hp.l2_coeff),
        social_term=social_value(resid, hp.social_reg_coeff),
    )


def loss_terms_backward(terms: TermSet, gap: np.ndarray, emb: EmbeddingSet, adj: ScoreAdjoint) -> None:
    """Push d(sum of term losses)/d(gap) into the embedding adjoints."""
    score_pairs_backward(emb, terms.users, terms.hi, terms.lo, terms.weight * sigmoid(gap), adj)
