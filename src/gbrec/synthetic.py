"""Synthetic group-buying data from a planted latent model, plus exact oracles.

The planted world gives every user TWO latent role vectors -- one governing
what they launch, one governing what they join -- so multi-view models have
signal that a single-vector baseline cannot represent (the two roles can be
made identical, correlated, or independent via ``role_correlation``).
Group buying only works when the initiator picks something their circle will
actually join, so ``launch_social_mix`` blends each user's launch vector from
the mean of their friends' join vectors (plus an own component); at 0 the
roles are socially untethered, at 1 a user launches purely by their friends'
tastes.

Simulation of one record:

1. initiator sampled by fixed per-user activity weights;
2. item sampled from a softmax (temperature ``item_temp``) over the
   initiator's launch-role affinities;
3. every friend of the initiator joins independently with probability
   sigmoid(join_scale * <friend join vector, item vector> + join_bias);
4. the record succeeds iff the number of joiners reaches
   ``success_threshold``.

The first P records force initiators 0..P-1 and the first Q records force
items 0..Q-1 (a coverage pass), so every id appears at least once, the dense
re-ingest mapping is the identity, and downstream stats match the generation
counters exactly. Everything is driven by one seeded generator, so a (config,
seed) pair reproduces files byte for byte.

``success_probability`` computes the exact Poisson-binomial tail over a
user's full friend set, and ``oracle_topk`` ranks items by it -- the ground
truth that recovery tests compare against.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .data import BehaviorLog, SocialGraph, write_behaviors, write_social


@dataclass
class SynthConfig:
    num_users: int = 500
    num_items: int = 200
    latent_dim: int = 8
    num_records: int = 20000
    mean_friends: float = 8.0
    activity_concentration: float = 2.0
    item_temp: float = 0.2
    join_scale: float = 4.0
    join_bias: float = -1.0
    success_threshold: int = 2
    role_correlation: float = 0.5
    launch_social_mix: float = 0.5

    def validate(self) -> list[str]:
        problems = []
        if self.num_users < 2:
            problems.append(f"num_users must be >= 2, got {self.num_users}")
        if self.num_items < 2:
            problems.append(f"num_items must be >= 2, got {self.num_items}")
        if self.latent_dim < 1:
            problems.append(f"latent_dim must be >= 1, got {self.latent_dim}")
        if self.num_records < max(self.num_users, self.num_items):
            problems.append(
                "num_records must be >= max(num_users, num_items) so every id can appear, "
                f"got {self.num_records}"
            )
        if self.mean_friends < 0:
            problems.append(f"mean_friends must be >= 0, got {self.mean_friends}")
        if self.activity_concentration <= 0:
            problems.append(f"activity_concentration must be > 0, got {self.activity_concentration}")
        if self.item_temp <= 0:
            problems.append(f"item_temp must be > 0, got {self.item_temp}")
        if self.success_threshold < 0:
            problems.append(f"success_threshold must be >= 0, got {self.success_threshold}")
        if not 0.0 <= self.role_correlation <= 1.0:
            problems.append(f"role_correlation must be in [0, 1], got {self.role_correlation}")
        if not 0.0 <= self.launch_social_mix <= 1.0:
            problems.append(f"launch_social_mix must be in [0, 1], got {self.launch_social_mix}")
        return problems

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        known = {f.name for f in dc_fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass
class PlantedModel:
    """Ground-truth latents and rules; all rows unit length, activity sums to 1."""

    launch_vecs: np.ndarray  # (P, k) what each user likes to launch
    join_vecs: np.ndarray    # (P, k) what each user likes to join
    item_vecs: np.ndarray    # (Q, k)
    activity: np.ndarray     # (P,) initiator sampling weights
    social: SocialGraph
    item_temp: float
    join_scale: float
    join_bias: float
    success_threshold: int

    @property
    def num_users(self) -> int:
        return self.launch_vecs.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_vecs.shape[0]

    def item_probs(self, user: int) -> np.ndarray:
        """Softmax launch distribution over all items for one initiator."""
        logits = (self.launch_vecs[user] @ self.item_vecs.T) / self.item_temp
        logits -= logits.max()
        w = np.exp(logits)
        return w / w.sum()

    def join_probs(self, users: np.ndarray, item: int) -> np.ndarray:
        a = self.join_vecs[users] @ self.item_vecs[item]
        z = self.join_scale * a + self.join_bias
        return 1.0 / (1.0 + np.exp(-z))

    def success_probability(self, user: int, item: int) -> float:
        """Exact P(#joining friends >= threshold) over the user's full friend set."""
        probs = self.join_probs(self.social.friends(user), item)
        return poisson_binomial_tail(probs, self.success_threshold)


def poisson_binomial_tail(probs: np.ndarray, threshold: int) -> float:
    """P(sum of independent Bernoulli(p_i) >= threshold), exact dynamic program."""
    if threshold <= 0:
        return 1.0
    if threshold > probs.shape[0]:
        return 0.0
    # dp[c] = P(count == c), tracked only for c < threshold
    dp = np.zeros(threshold, dtype=np.float64)
    dp[0] = 1.0
    for p in probs:
        dp[1:] = dp[1:] * (1.0 - p) + dp[:-1] * p
        dp[0] *= 1.0 - p
    return float(min(1.0, max(0.0, 1.0 - dp.sum())))


def success_probability(planted: PlantedModel, user: int, item: int) -> float:
    return planted.success_probability(user, item)


def oracle_topk(planted: PlantedModel, user: int, k: int) -> list[int]:
    """Items ranked by exact planted success probability (ties: lower id first)."""
    scores = np.array(
        [planted.success_probability(user, n) for n in range(planted.num_items)]
    )
    order = np.lexsort((np.arange(planted.num_items), -scores))
    return [int(i) for i in order[:k]]


# ---------------------------------------------------------------------------
# generation


def _unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def build_planted(cfg: SynthConfig, rng: np.random.Generator) -> PlantedModel:
    P, Q, k = cfg.num_users, cfg.num_items, cfg.latent_dim
    num_edges = int(round(P * cfg.mean_friends / 2.0))
    pairs = rng.integers(0, P, size=(num_edges, 2), dtype=np.int64)
    social = SocialGraph.from_edges(P, pairs)

    g_join = rng.standard_normal((P, k))
    rho = cfg.role_correlation
    own = rho * g_join + np.sqrt(1.0 - rho * rho) * rng.standard_normal((P, k))
    # launch taste leans on what the circle would join; friendless users keep
    # a pure own component regardless of the mix
    friend_join = np.zeros((P, k))
    for u in range(P):
        fr = social.friends(u)
        if fr.size:
            friend_join[u] = g_join[fr].mean(axis=0)
    friend_join = _unit_rows(friend_join) * np.sqrt(k)
    mix = np.where(np.diff(social.indptr) > 0, cfg.launch_social_mix, 0.0)[:, None]
    g_launch = mix * friend_join + (1.0 - mix) * own

    activity = rng.gamma(cfg.activity_concentration, size=P)
    activity /= activity.sum()
    return PlantedModel(
        launch_vecs=_unit_rows(g_launch),
        join_vecs=_unit_rows(g_join),
        item_vecs=_unit_rows(rng.standard_normal((Q, k))),
        activity=activity,
        social=social,
        item_temp=cfg.item_temp,
        join_scale=cfg.join_scale,
        join_bias=cfg.join_bias,
        success_threshold=cfg.success_threshold,
    )


def simulate(planted: PlantedModel, cfg: SynthConfig, rng: np.random.Generator) -> BehaviorLog:
    """Emit num_records launches; the first P/Q force initiator/item coverage."""
    P, Q = cfg.num_users, cfg.num_items
    # Generator.choice(n, p=p) draws cdf.searchsorted(rng.random(), side="right")
    # with cdf = p.cumsum() / its last entry; the same draws from tables built
    # once leave the generator in the same state
    initiator_cdf = planted.activity.cumsum()
    initiator_cdf /= initiator_cdf[-1]
    item_cdf = np.empty((P, Q))
    for u in range(P):
        row = np.cumsum(planted.item_probs(u), out=item_cdf[u])
        row /= row[-1]
    rows: list[tuple[int, int, bool, int]] = []
    members: list[int] = []
    for t in range(cfg.num_records):
        initiator = t if t < P else int(initiator_cdf.searchsorted(rng.random(), side="right"))
        item = t if t < Q else int(item_cdf[initiator].searchsorted(rng.random(), side="right"))
        friends = planted.social.friends(initiator)
        if friends.size:
            joined = friends[rng.random(friends.size) < planted.join_probs(friends, item)]
        else:
            joined = friends
        rows.append((initiator, item, joined.size >= planted.success_threshold, joined.size))
        members.extend(joined.tolist())
    return BehaviorLog.from_rows(rows, members, P, Q)


@dataclass
class SynthResult:
    behavior_path: str
    social_path: str
    planted_path: str
    log: BehaviorLog
    planted: PlantedModel
    counters: dict


def generate(cfg: SynthConfig, seed: int, outdir: str) -> SynthResult:
    """Write behaviors.tsv, social.tsv, and planted.npz; returns them plus counters."""
    problems = cfg.validate()
    if problems:
        raise ValueError("invalid synthetic config:\n  " + "\n  ".join(problems))
    rng = np.random.default_rng(seed)
    planted = build_planted(cfg, rng)
    logb = simulate(planted, cfg, rng)

    os.makedirs(outdir, exist_ok=True)
    behavior_path = os.path.join(outdir, "behaviors.tsv")
    social_path = os.path.join(outdir, "social.tsv")
    planted_path = os.path.join(outdir, "planted.npz")
    write_behaviors(behavior_path, logb)
    write_social(social_path, planted.social)
    save_planted(planted_path, planted)

    n_success = int(np.count_nonzero(logb.success))
    counters = {
        "num_users": cfg.num_users,
        "num_items": cfg.num_items,
        "num_behaviors": len(logb),
        "num_success": n_success,
        "num_failed": len(logb) - n_success,
        "num_social_edges": planted.social.num_edges,
    }
    with open(os.path.join(outdir, "generation.json"), "w", encoding="utf-8") as fh:
        json.dump({"config": cfg.to_dict(), "seed": seed, "counters": counters}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return SynthResult(behavior_path, social_path, planted_path, logb, planted, counters)


def save_planted(path: str, planted: PlantedModel) -> None:
    np.savez(
        path,
        launch_vecs=planted.launch_vecs,
        join_vecs=planted.join_vecs,
        item_vecs=planted.item_vecs,
        activity=planted.activity,
        social_indptr=planted.social.indptr,
        social_indices=planted.social.indices,
        scalars=np.array(
            [planted.item_temp, planted.join_scale, planted.join_bias, float(planted.success_threshold)]
        ),
    )


def load_planted(path: str) -> PlantedModel:
    with np.load(path) as z:
        temp, scale, bias, threshold = z["scalars"]
        return PlantedModel(
            launch_vecs=z["launch_vecs"],
            join_vecs=z["join_vecs"],
            item_vecs=z["item_vecs"],
            activity=z["activity"],
            social=SocialGraph(z["launch_vecs"].shape[0], z["social_indptr"], z["social_indices"]),
            item_temp=float(temp),
            join_scale=float(scale),
            join_bias=float(bias),
            success_threshold=int(threshold),
        )
