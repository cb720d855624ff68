"""Leave-one-out ranking evaluation with frozen negative candidates.

Each evaluated user has one held-out record; its item is scored against the
user's frozen negative list and ranked pessimistically (ties count against
the model: rank = #strictly-better + #equal among the negatives). Metrics:

* recall@K: fraction of users whose held-out item landed in the top K;
* ndcg@K:  mean of 1/log2(rank+2) for users with rank < K, else 0.

Users are ranked in blocks of ``RANK_BLOCK``: one ``(block, num_items)``
score matrix per block, from which each user's test item and negatives (its
row of the negatives ``CSR``) are gathered. ``rank_from_scores`` is the same
rank for one user.

Keeping the negative lists frozen in the split makes comparisons between
models paired; ``negatives_digest`` fingerprints them so a report can prove
two evaluations saw the same candidates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import BehaviorLog
from .kernels import CSR

# every item's score for each user given: (users,) -> (len(users), num_items)
ScoreUsersFn = Callable[[np.ndarray], np.ndarray]

# Users per score matrix. Counting users, not score cells, bounds the gathered
# candidates too: 128 lists of up to 999 items with the default split.
RANK_BLOCK = 128


def rank_from_scores(test_score: float, negative_scores: np.ndarray) -> int:
    """Pessimistic rank of the test item among its negatives (0 = top)."""
    greater = int(np.sum(negative_scores > test_score))
    equal = int(np.sum(negative_scores == test_score))
    return greater + equal


@dataclass
class MetricReport:
    ks: tuple[int, ...]
    recall: dict[int, float]
    ndcg: dict[int, float]
    num_users: int
    ranks: np.ndarray

    def __post_init__(self):
        ks = sorted(self.ks)
        for a, b in zip(ks, ks[1:]):
            if self.recall[a] > self.recall[b] + 1e-12:
                raise ValueError(f"recall must grow with K: recall@{a} > recall@{b}")
            if self.ndcg[a] > self.ndcg[b] + 1e-12:
                raise ValueError(f"ndcg must grow with K: ndcg@{a} > ndcg@{b}")
        for k in ks:
            if self.ndcg[k] > self.recall[k] + 1e-12:
                raise ValueError(f"ndcg@{k} exceeds recall@{k}")

    def to_dict(self) -> dict:
        return {
            "num_users": self.num_users,
            "recall": {str(k): self.recall[k] for k in self.ks},
            "ndcg": {str(k): self.ndcg[k] for k in self.ks},
        }

    def text(self) -> str:
        lines = [f"users={self.num_users}"]
        for k in self.ks:
            lines.append(f"recall@{k}={self.recall[k]:.6f}\tndcg@{k}={self.ndcg[k]:.6f}")
        return "\n".join(lines)


def compute_metrics(ranks: np.ndarray, ks: tuple[int, ...]) -> MetricReport:
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size == 0:
        raise ValueError("no ranks to aggregate")
    recall = {}
    ndcg = {}
    gains = 1.0 / np.log2(ranks + 2.0)
    for k in ks:
        hit = ranks < k
        recall[k] = float(np.mean(hit))
        ndcg[k] = float(np.mean(np.where(hit, gains, 0.0)))
    return MetricReport(tuple(ks), recall, ndcg, int(ranks.size), ranks)


def evaluate_ranking(
    score_users: ScoreUsersFn,
    records: BehaviorLog,
    negatives: CSR,
    ks: tuple[int, ...],
) -> MetricReport:
    """Rank each held-out record's item for its initiator against the
    initiator's row of ``negatives``, in the log's order (ascending user id
    for a split's held-out logs), ``RANK_BLOCK`` users per score matrix. A
    negative counts against the test item when it scores ``>=``: the
    pessimistic rank, and NaN on either side counts for nothing."""
    ptr, ids = negatives.indptr, negatives.indices
    ranks = np.empty(len(records), dtype=np.int64)
    for start in range(0, len(records), RANK_BLOCK):
        block = slice(start, start + RANK_BLOCK)
        users = records.initiator[block]
        rows = np.arange(users.shape[0])
        scores = score_users(users)
        test = scores[rows, records.item[block]]
        counts = ptr[users + 1] - ptr[users]
        row = np.repeat(rows, counts)
        # candidate j of the block sits at its row's start plus its place in that row
        cand = ids[np.arange(row.shape[0]) + (ptr[users] - (np.cumsum(counts) - counts))[row]]
        beaten = scores[row, cand] >= test[row]
        ranks[block] = np.bincount(row[beaten], minlength=rows.shape[0])
    return compute_metrics(ranks, ks)


def negatives_digest(negatives: CSR) -> str:
    """Fingerprint of the frozen candidate lists: the sha256 of, per user
    with a non-empty row in ascending order, ``b"<user>:"``, the row's ids as
    little-endian int64 bytes, and ``b";"``, whatever dtype ``indices`` is
    held in. Rows are cast one at a time, so the narrow ids of a loaded split
    are never copied whole."""
    h = hashlib.sha256()
    ids, ptr = negatives.indices, negatives.indptr.tolist()
    for u in np.flatnonzero(negatives.degrees).tolist():
        h.update(b"%d:" % u)
        h.update(ids[ptr[u] : ptr[u + 1]].astype("<i8", copy=False))
        h.update(b";")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# view-agreement diagnostics


@dataclass
class ViewSimilarity:
    cosines: np.ndarray
    histogram: np.ndarray
    bin_edges: np.ndarray
    skipped_zero_vectors: int


def view_similarity(a: np.ndarray, b: np.ndarray, bins: int = 20) -> ViewSimilarity:
    """Row-wise cosine similarity between two embedding matrices.

    Rows where either side is the zero vector have no defined angle; they
    are skipped and counted instead of polluting the histogram.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a.astype(np.float64), axis=1)
    nb = np.linalg.norm(b.astype(np.float64), axis=1)
    ok = (na > 0) & (nb > 0)
    dots = np.einsum("nd,nd->n", a[ok].astype(np.float64), b[ok].astype(np.float64))
    cos = np.clip(dots / (na[ok] * nb[ok]), -1.0, 1.0)
    hist, edges = np.histogram(cos, bins=bins, range=(-1.0, 1.0))
    return ViewSimilarity(cos, hist, edges, int(np.sum(~ok)))
