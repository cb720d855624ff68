"""Interaction flattening for the propagation-free baselines.

Two baselines, both plain embedding tables scored without any graph
propagation by ``scoring.flat_embeddings``:

* ``mf``: classic pairwise-ranked matrix factorization. Group structure is
  erased up front: every record is flattened to plain user-item pairs
  (the initiator's and each participant's), all marked successful, and
  the trainer is run with the social weight, the failure weight, and the
  two-role mixing all zeroed. Only the single inner product ``<user_emb[u],
  item_emb[i]>`` remains. ``flatten_interactions`` does the flattening.

* ``gbmf``: the same embedding tables, but keeping the group-buying
  supervision -- original records, the composite two-role scoring rule, and
  the failure-flipped terms. Equivalent to the full model with propagation
  removed. Over raw embeddings the two-role score ``(1-alpha) <user, item> +
  alpha <friend mean, item>`` is one inner product ``<q[user], item>`` with
  the query row ``q = (1-alpha) user_emb + alpha social.mean(user_emb)``,
  and ``scoring.flat_embeddings`` scores it that way.

Both reuse the trainer's optimizers and the evaluator verbatim, so metric
deltas against the graph model reflect the model change only.
"""

from __future__ import annotations

import numpy as np

from .data import BehaviorLog


def flatten_interactions(log: BehaviorLog) -> BehaviorLog:
    """Convert group records to plain user-item pairs for single-view training.

    Each kept (user, item) occurrence becomes its own record with no
    participants and a success flag, so downstream sampling and loss code see
    an ordinary implicit-feedback dataset. Occurrences are kept with
    multiplicity: a user appearing in three groups for an item yields three
    pairs. Each record's initiator comes first, then its participants.
    """
    # insert keeps equal positions in order
    users = np.insert(log.part_indices, log.part_indptr[:-1], log.initiator)
    items = np.repeat(log.item, 1 + log.num_participants)
    n = users.shape[0]
    return BehaviorLog(
        users, items, np.ones(n, dtype=bool), np.zeros(n + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64), log.num_users, log.num_items,
    )

