"""Output checks for the pipeline benchmark, computed apart from gbrec.

Each check reads what a step printed and the files it wrote, recomputes the
property it must have with code of its own, and raises ``CheckFailed`` when
the two disagree. Two pieces of the repository are reused on purpose:
``gbrec.trainer.load_checkpoint`` decodes the binary checkpoint (a decoder,
not a computation under test), and for GBGCN the dense propagation oracle in
``tests/oracles.py``, which the test suite already holds the sparse model to.

Scores are recomputed in float64 while gbrec scores in float32, so two
scores closer than ``score_tol`` count as tied, and a check that depends on
an order accepts either side of such a near-tie.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from collections import Counter

import numpy as np

EVAL_K = 10


class CheckFailed(Exception):
    """An output of the program is wrong."""


def score_tol(score: float) -> float:
    return 1e-4 * max(1.0, abs(score))


# ---------------------------------------------------------------------------
# reading the program's text outputs


def parse_kv(stdout: str) -> dict[str, str]:
    """``key=value`` pairs, one or more per line, separated by tabs."""
    out = {}
    for line in stdout.splitlines():
        for part in line.split("\t"):
            key, sep, value = part.partition("=")
            if sep:
                out[key.strip()] = value.strip()
    return out


def _need(kv: dict, key: str, where: str) -> str:
    if key not in kv:
        raise CheckFailed(f"{where}: no '{key}=' in the output")
    return kv[key]


def read_launches(path: str) -> list[tuple[int, int, tuple[int, ...], bool]]:
    """Launch records as (initiator, item, sorted participants, success)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                a, b, members, ok = line.split("\t")
                parts = () if members == "-" else tuple(sorted(int(p) for p in members.split(",")))
                if ok not in ("0", "1"):
                    raise ValueError(ok)
                out.append((int(a), int(b), parts, ok == "1"))
            except ValueError as exc:
                raise CheckFailed(f"{path}:{lineno}: malformed launch line ({exc})") from None
    return out


def touched_items(records, num_users: int) -> list[set[int]]:
    """Items each user launched or joined."""
    touched: list[set[int]] = [set() for _ in range(num_users)]
    for initiator, item, members, _ok in records:
        touched[initiator].add(item)
        for p in members:
            touched[p].add(item)
    return touched


def read_negatives(path: str) -> dict[int, np.ndarray]:
    """``user<TAB>item,item,...`` lines, parsed in one pass over the file."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line]
    sizes = [line.count(",") + 2 for line in lines]  # the user id plus the items
    flat = np.fromstring(",".join(lines).replace("\t", ","), dtype=np.int64, sep=",") if lines else []
    if len(flat) != sum(sizes) or any(line.count("\t") != 1 for line in lines):
        raise CheckFailed(f"{path}: malformed negatives file")
    out = {}
    pos = 0
    for n in sizes:
        out[int(flat[pos])] = flat[pos + 1 : pos + n]
        pos += n
    return out


def read_social(path: str, num_users: int) -> list[list[int]]:
    """Friend lists from an undirected ``a<TAB>b`` edge file."""
    friends: list[set[int]] = [set() for _ in range(num_users)]
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                a, b = (int(t) for t in line.split("\t"))
                if a != b:
                    friends[a].add(b)
                    friends[b].add(a)
    return [sorted(f) for f in friends]


def negatives_fingerprint(negatives: dict[int, np.ndarray]) -> str:
    """sha256 over users in id order: ``<id>:`` + int64 LE items + ``;``."""
    h = hashlib.sha256()
    for u in sorted(negatives):
        h.update(f"{u}:".encode())
        h.update(negatives[u].astype("<i8").tobytes())
        h.update(b";")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# synth and prepare

COUNTER_KEYS = ("num_users", "num_items", "num_behaviors", "num_success", "num_failed", "num_social_edges")


def check_synth(stdout: str, behaviors_path: str) -> dict[str, int]:
    """The generator's counters, checked against the file it wrote."""
    kv = parse_kv(stdout)
    counters = {key: int(_need(kv, key, "synth")) for key in COUNTER_KEYS}
    records = read_launches(behaviors_path)
    n_success = sum(1 for r in records if r[3])
    if len(records) != counters["num_behaviors"] or n_success != counters["num_success"]:
        raise CheckFailed(
            f"synth: {len(records)} launches ({n_success} successful) in the file, "
            f"counters say {counters['num_behaviors']} ({counters['num_success']})"
        )
    return counters


def check_prepare(stdout: str, behaviors_path: str, split_dir: str, counters: dict, num_negatives: int) -> dict:
    """Counts, record conservation, frozen negatives and their digest."""
    kv = parse_kv(stdout)
    for key in COUNTER_KEYS:
        if int(_need(kv, key, "prepare")) != counters[key]:
            raise CheckFailed(f"prepare: {key}={kv[key]}, the generator made {counters[key]}")
    n_train = int(_need(kv, "train_records", "prepare"))
    n_val = int(_need(kv, "validation_users", "prepare"))
    n_test = int(_need(kv, "test_users", "prepare"))
    if n_train + n_val + n_test != counters["num_behaviors"]:
        raise CheckFailed(
            f"prepare: {n_train} train + {n_val} validation + {n_test} test records "
            f"!= {counters['num_behaviors']} launches"
        )

    raw = read_launches(behaviors_path)
    parts = {name: read_launches(os.path.join(split_dir, f"{name}.tsv")) for name in ("train", "validation", "test")}
    for name, expected in (("train", n_train), ("validation", n_val), ("test", n_test)):
        if len(parts[name]) != expected:
            raise CheckFailed(f"prepare: {name}.tsv has {len(parts[name])} records, printed {expected}")
    if Counter(raw) != Counter(parts["train"] + parts["validation"] + parts["test"]):
        raise CheckFailed("prepare: train + validation + test records are not the generated launches")

    P, Q = counters["num_users"], counters["num_items"]
    touched = touched_items(raw, P)
    launches = Counter(r[0] for r in raw)
    # leave-one-out: a test record for >= 2 launches, a validation one for >= 3
    want_test = {u for u, n in launches.items() if n >= 2 and len(touched[u]) < Q}
    want_val = {u for u in want_test if launches[u] >= 3}
    for name, want in (("test", want_test), ("validation", want_val)):
        got = [r[0] for r in parts[name]]
        if len(set(got)) != len(got) or set(got) != want:
            raise CheckFailed(f"prepare: {name} users are not the users with enough launches")

    negatives = read_negatives(os.path.join(split_dir, "negatives.tsv"))
    if set(negatives) != want_test:
        raise CheckFailed("prepare: negative lists are not exactly the test users'")
    users = np.fromiter(negatives, dtype=np.int64, count=len(negatives))
    sizes = np.array([negatives[u].shape[0] for u in users.tolist()], dtype=np.int64)
    expected = np.minimum(num_negatives, Q - np.array([len(touched[u]) for u in users.tolist()]))
    if np.any(sizes != expected):
        u = int(users[np.argmax(sizes != expected)])
        raise CheckFailed(f"prepare: user {u} has {negatives[u].shape[0]} negatives, expected {min(num_negatives, Q - len(touched[u]))}")
    owner = np.repeat(users, sizes)
    items = np.concatenate([negatives[u] for u in users.tolist()])
    if items.size and (items.min() < 0 or items.max() >= Q):
        raise CheckFailed(f"prepare: a negative item lies outside [0, {Q})")
    if np.any(np.diff(np.sort(owner * Q + items)) == 0):
        raise CheckFailed("prepare: a user's negative list repeats an item")
    touched_mask = np.zeros((P, Q), dtype=bool)
    for u, its in enumerate(touched):
        touched_mask[u, list(its)] = True
    hit = touched_mask[owner, items]
    if hit.any():
        raise CheckFailed(f"prepare: user {int(owner[np.argmax(hit)])} negatives include an item the user touched")
    digest = negatives_fingerprint(negatives)
    if _need(kv, "negatives_digest", "prepare") != digest:
        raise CheckFailed(f"prepare: printed negatives_digest != {digest} recomputed from negatives.tsv")
    return {"train_records": n_train, "test_users": sorted(want_test)}


# ---------------------------------------------------------------------------
# train


def check_train(stdout: str, expected_epochs: int) -> dict:
    """One finite log entry per epoch; returns the hash and output paths."""
    kv = parse_kv(stdout)
    log_path = _need(kv, "training_log", "train")
    log_hash = _need(kv, "training_log_hash", "train")
    if len(log_hash) != 64 or any(c not in "0123456789abcdef" for c in log_hash):
        raise CheckFailed(f"train: training_log_hash {log_hash!r} is not a sha256 hex digest")
    with open(log_path, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh if line.strip()]
    if len(entries) != expected_epochs:
        raise CheckFailed(f"train: {len(entries)} log entries for {expected_epochs} epochs")

    def finite(value) -> bool:
        if isinstance(value, dict):
            return all(finite(v) for v in value.values())
        if isinstance(value, list):
            return all(finite(v) for v in value)
        if isinstance(value, float):
            return math.isfinite(value)
        return True

    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not finite(entry):
            raise CheckFailed(f"train: log entry {i} is not a finite record: {entry}")
    return {"hash": log_hash, "checkpoint": _need(kv, "checkpoint", "train")}


# ---------------------------------------------------------------------------
# reference scorer, evaluate and recommend


def _neighbor_mean(friends: list[list[int]], rows: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rows)
    for u, fr in enumerate(friends):
        if fr:
            out[u] = rows[fr].mean(axis=0)
    return out


class ReferenceScorer:
    """Every (user, item) score of a checkpoint, recomputed densely in float64.

    The score is (1 - alpha) * <user launch, item launch> + alpha * <mean of
    friends' join embeddings, item join>. For gbgcn the embeddings come from
    the dense oracle over the training graphs; for gbmf they are the raw
    tables.
    """

    def __init__(self, checkpoint_path: str, split_dir: str, num_users: int, num_items: int, tests_dir: str):
        from gbrec.trainer import load_checkpoint

        ckpt = load_checkpoint(checkpoint_path)
        params, hp = ckpt.params, ckpt.hp
        user = params.user_emb.astype(np.float64)
        item = params.item_emb.astype(np.float64)
        if user.shape[0] != num_users or item.shape[0] != num_items:
            raise CheckFailed(f"checkpoint is {user.shape[0]} x {item.shape[0]}, data {num_users} x {num_items}")
        train = read_launches(os.path.join(split_dir, "train.tsv"))
        friends = read_social(os.path.join(split_dir, "social.tsv"), num_users)
        self.seen = touched_items(train, num_users)

        if ckpt.model_type == "gbgcn":
            if tests_dir not in sys.path:
                sys.path.insert(0, tests_dir)
            import oracles

            launch, join, share = set(), set(), set()
            for initiator, it, members, ok in train:
                launch.add((initiator, it))
                if ok or hp.failed_participant_edges:
                    for p in members:
                        join.add((p, it))
                        share.add((initiator, p))
            tensors = params.tensors()
            weights = {n: w.astype(np.float64) for n, w in tensors.items() if n.startswith("w_")}
            biases = {"w_" + n[2:]: b.astype(np.float64) for n, b in tensors.items() if n.startswith("b_")}
            blocks = oracles.dense_forward_oracle(
                num_users, num_items, sorted(launch), sorted(join), sorted(share), user, item,
                weights, biases, hp.num_layers, hp.activation, hp.activation_slope,
            )
            ul, il, uj, ij = (np.concatenate(blocks[s], axis=1) for s in ("user_launch", "item_launch", "user_join", "item_join"))
        elif ckpt.model_type == "gbmf":
            ul = uj = user
            il = ij = item
        else:
            raise CheckFailed(f"no reference scorer for model type {ckpt.model_type!r}")

        has_friends = np.array([bool(f) for f in friends])
        coef = np.full(num_users, 1.0 - hp.alpha)
        if hp.renormalize_alpha:
            coef[~has_friends] = 1.0
        self.scores = coef[:, None] * (ul @ il.T) + hp.alpha * (_neighbor_mean(friends, uj) @ ij.T)


def _gain(rank: np.ndarray) -> np.ndarray:
    return np.where(rank < EVAL_K, 1.0 / np.log2(rank + 2.0), 0.0)


def random_ndcg(candidate_counts: np.ndarray) -> float:
    """Expected ndcg@10 of a scorer that ranks each user's candidates at random."""
    total = 0.0
    for n in candidate_counts:
        total += sum(1.0 / math.log2(r + 2) for r in range(min(EVAL_K, int(n)))) / n
    return total / len(candidate_counts)


def check_evaluate(stdout: str, scorer: ReferenceScorer, split_dir: str) -> float:
    """Recompute recall@10 and ndcg@10 with pessimistic ranks, and require ndcg@10
    above a random scorer's expectation; returns ndcg@10."""
    kv = parse_kv(stdout)
    recall = float(_need(kv, f"recall@{EVAL_K}", "evaluate"))
    ndcg = float(_need(kv, f"ndcg@{EVAL_K}", "evaluate"))
    test = {r[0]: r[1] for r in read_launches(os.path.join(split_dir, "test.tsv"))}
    negatives = read_negatives(os.path.join(split_dir, "negatives.tsv"))
    if int(_need(kv, "users", "evaluate")) != len(test):
        raise CheckFailed(f"evaluate: users={kv['users']}, the split has {len(test)} test users")

    # rank = #negatives scored >= the held-out item; near-ties may go either way
    best = np.empty(len(test))
    worst = np.empty(len(test))
    counts = np.empty(len(test))
    for i, u in enumerate(sorted(test)):
        t = scorer.scores[u, test[u]]
        s = scorer.scores[u, negatives[u]]
        tol = score_tol(t)
        best[i] = np.sum(s > t + tol)
        worst[i] = np.sum(s >= t - tol)
        counts[i] = s.shape[0] + 1
    slack = 1e-6  # the output has six decimals
    for name, value, lo, hi in (
        ("recall", recall, np.mean(worst < EVAL_K), np.mean(best < EVAL_K)),
        ("ndcg", ndcg, np.mean(_gain(worst)), np.mean(_gain(best))),
    ):
        if not lo - slack <= value <= hi + slack:
            raise CheckFailed(f"evaluate: {name}@{EVAL_K}={value}, recomputed [{lo:.6f}, {hi:.6f}]")
    floor = random_ndcg(counts)
    if not ndcg > floor:
        raise CheckFailed(f"evaluate: ndcg@{EVAL_K}={ndcg} is not above a random scorer's {floor:.6f}")
    return ndcg


def check_recommend(stdout: str, user: int, scorer: ReferenceScorer, k: int) -> None:
    """k distinct unseen items in non-increasing score order, a true top k."""
    picked, printed = [], []
    for line in stdout.splitlines():
        if not line.strip():
            continue
        try:
            item, score = line.split("\t")
            picked.append(int(item))
            printed.append(float(score))
        except ValueError:
            raise CheckFailed(f"recommend user {user}: malformed line {line!r}") from None
    ref = scorer.scores[user]
    seen = scorer.seen[user]
    unseen = np.array([i for i in range(ref.shape[0]) if i not in seen])
    where = f"recommend user {user}"
    if len(picked) != min(k, unseen.shape[0]):
        raise CheckFailed(f"{where}: {len(picked)} items, expected {min(k, unseen.shape[0])}")
    if len(set(picked)) != len(picked) or min(picked) < 0 or max(picked) >= ref.shape[0]:
        raise CheckFailed(f"{where}: items repeat or are out of range: {picked}")
    if seen.intersection(picked):
        raise CheckFailed(f"{where}: recommends items from the user's training interactions")
    for a, b in zip(printed, printed[1:]):
        if b > a:
            raise CheckFailed(f"{where}: scores increase: {printed}")
    for item, score in zip(picked, printed):
        if abs(score - ref[item]) > score_tol(ref[item]) + 1e-6:
            raise CheckFailed(f"{where}: item {item} printed {score}, recomputed {ref[item]:.6f}")
    for a, b in zip(picked, picked[1:]):
        if ref[b] > ref[a] + score_tol(ref[a]):
            raise CheckFailed(f"{where}: item {b} ranks below {a} but scores higher")
    rest = np.setdiff1d(unseen, picked)
    if rest.size:
        lowest = min(ref[i] for i in picked)
        if ref[rest].max() > lowest + score_tol(lowest):
            raise CheckFailed(f"{where}: unseen item {int(rest[np.argmax(ref[rest])])} beats a recommended one")
