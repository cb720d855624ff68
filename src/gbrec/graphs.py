"""Directed heterogeneous graphs built from a training behavior log.

Three graphs, each a ``kernels.CSR`` with users as rows:

* launch graph   -- user -> item edges, one per (initiator, item) pair;
* join graph     -- user -> item edges, one per (participant, item) pair;
* share graph    -- directed initiator -> participant edges, answering "who
                    did this user share to".

The other direction of each graph -- an item's launchers or joiners, and
"who shared to this user" -- is that graph's transpose ``.T``. Repeated
interactions collapse to simple edges. Graphs must be built from training
records only; held-out records leak evaluation targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BehaviorLog
from .kernels import CSR


@dataclass
class HeteroGraphBundle:
    num_users: int
    num_items: int
    launch: CSR  # users -> items they initiated for
    join: CSR    # users -> items they joined
    share: CSR   # users -> users they shared to


def build_graphs(train: BehaviorLog, failed_participant_edges: bool = True) -> HeteroGraphBundle:
    """Assemble all three graphs from the training records.

    Failed launches always contribute their launch edge; whether their join
    and share edges count too is a modelling switch (default: they do -- a
    join expresses interest even when the deal fell through).
    """
    lu, li = [], []
    ju, ji = [], []
    src, dst = [], []
    for r in train.records:
        lu.append(r.initiator)
        li.append(r.item)
        if r.participants and (r.success or failed_participant_edges):
            for p in r.participants:
                ju.append(p)
                ji.append(r.item)
                src.append(r.initiator)
                dst.append(p)

    lu = np.asarray(lu, dtype=np.int64)
    li = np.asarray(li, dtype=np.int64)
    ju = np.asarray(ju, dtype=np.int64)
    ji = np.asarray(ji, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)

    P, Q = train.num_users, train.num_items
    return HeteroGraphBundle(
        num_users=P,
        num_items=Q,
        launch=CSR.from_edges(P, Q, lu, li),
        join=CSR.from_edges(P, Q, ju, ji),
        share=CSR.from_edges(P, P, src, dst),
    )
