"""Leave-one-out ranking evaluation with frozen negative candidates.

Each evaluated user has one held-out record; its item is scored against the
user's frozen negative list and ranked pessimistically (ties count against
the model: rank = #strictly-better + #equal among the negatives). Metrics:

* recall@K: fraction of users whose held-out item landed in the top K;
* ndcg@K:  mean of 1/log2(rank+2) for users with rank < K, else 0.

Users are ranked in blocks of ``RANK_BLOCK``: one ``(block, num_items)``
score matrix per block, compared row by row with each user's test-item score,
and one boolean mask of the same shape that marks each user's negatives (its
row of the negatives ``CSR``); a rank is the count of a row's marked items
that score at least as high as its test item.

Keeping the negative lists frozen in the split makes comparisons between
models paired. This module only ranks: their fingerprint, which ``gbrec
evaluate`` prints, is ``rawdata.negatives_digest``, computed once by ``gbrec
prepare`` and stored in ``split.npz``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import BehaviorLog
from .kernels import CSR

# every item's score for each user given: (users,) -> (len(users), num_items)
ScoreUsersFn = Callable[[np.ndarray], np.ndarray]

# Users per score matrix, and per candidate mask of the same shape.
RANK_BLOCK = 128


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
    pessimistic rank, and NaN on either side counts for nothing.

    Each block marks its users' negatives in one ``(block, num_items)`` mask,
    so an id listed twice in a row would count once. The ``CSR`` rows are
    sorted and without repeats: ``load_split_dir`` rejects a split whose rows
    are not, and ``split_leave_one_out`` draws distinct items."""
    ptr, ids = negatives.indptr, negatives.indices
    ranks = np.empty(len(records), dtype=np.int64)
    for start in range(0, len(records), RANK_BLOCK):
        block = slice(start, start + RANK_BLOCK)
        users = records.initiator[block]
        rows = np.arange(users.shape[0])
        scores = score_users(users)
        beaten = scores >= scores[rows, records.item[block]][:, None]
        lo, hi = ptr[users], ptr[users + 1]
        # row r's negatives sit at r * num_items plus their ids in the flat mask
        listed = np.zeros(scores.size, dtype=bool)
        listed[
            np.repeat(rows * scores.shape[1], hi - lo)
            + np.concatenate([ids[a:b] for a, b in zip(lo.tolist(), hi.tolist())])
        ] = True
        ranks[block] = np.count_nonzero(beaten & listed.reshape(scores.shape), axis=1)
    return compute_metrics(ranks, ks)

