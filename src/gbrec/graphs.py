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
    npart = train.num_participants
    if not failed_participant_edges:
        npart = np.where(train.success, npart, 0)
    keep = np.repeat(npart > 0, train.num_participants)  # participants whose edges count
    ju = train.part_indices[keep]
    ji = np.repeat(train.item, npart)
    src = np.repeat(train.initiator, npart)

    P, Q = train.num_users, train.num_items
    return HeteroGraphBundle(
        num_users=P,
        num_items=Q,
        launch=CSR.from_edges(P, Q, train.initiator, train.item),
        join=CSR.from_edges(P, Q, ju, ji),
        share=CSR.from_edges(P, P, src, ju),
    )
