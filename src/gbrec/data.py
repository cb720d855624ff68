"""Behavior-log ingestion, leave-one-out splitting, and negative sampling.

File grammar (tab-separated, UTF-8, one record per line):

* behaviors: ``initiator<TAB>item<TAB>p1,p2,...<TAB>success`` where the
  participant field is ``-`` when nobody joined and success is 0 or 1.
* social:    ``user_a<TAB>user_b`` (undirected friendship).

Ingestion remaps arbitrary non-negative integer ids onto dense 0..P-1 /
0..Q-1 ranges (sorted by original id, so already-dense files map to
themselves and a write/re-ingest round trip is a fixed point).
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .kernels import CSR

log = logging.getLogger(__name__)

DEFAULT_EVAL_NEGATIVES = 999
INT64_MAX = int(np.iinfo(np.int64).max)


class IngestError(ValueError):
    pass


@dataclass
class BehaviorRecord:
    """One group-buying launch: who started it, for what, who joined, outcome."""

    initiator: int
    item: int
    participants: tuple[int, ...]
    success: bool

    def line(self) -> str:
        parts = ",".join(str(p) for p in self.participants) if self.participants else "-"
        return f"{self.initiator}\t{self.item}\t{parts}\t{int(self.success)}"


@dataclass(eq=False)
class RecordColumns:
    """Behavior records as columns: one entry per record in ``initiator``,
    ``item`` and ``success``, and record ``i``'s participants, in their
    recorded order, at ``part_indices[part_indptr[i]:part_indptr[i+1]]``.

    The participant lists are kept as given (not sorted or deduplicated), so
    anything expanded from them keeps the records' own order.
    """

    initiator: np.ndarray
    item: np.ndarray
    success: np.ndarray
    part_indptr: np.ndarray
    part_indices: np.ndarray

    @classmethod
    def from_records(cls, records: list[BehaviorRecord]) -> "RecordColumns":
        n = len(records)
        part_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter((len(r.participants) for r in records), np.int64, n), out=part_indptr[1:])
        return cls(
            initiator=np.fromiter((r.initiator for r in records), np.int64, n),
            item=np.fromiter((r.item for r in records), np.int64, n),
            success=np.fromiter((r.success for r in records), bool, n),
            part_indptr=part_indptr,
            part_indices=np.fromiter(
                chain.from_iterable(r.participants for r in records), np.int64, int(part_indptr[-1])
            ),
        )

    def __len__(self) -> int:
        return self.initiator.shape[0]

    @property
    def num_participants(self) -> np.ndarray:
        return np.diff(self.part_indptr)

    def take(self, idx: np.ndarray) -> "RecordColumns":
        """The records at ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        starts = self.part_indptr[idx]
        counts = self.part_indptr[idx + 1] - starts
        indptr = np.zeros(idx.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        gather = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1], dtype=np.int64)
        return RecordColumns(self.initiator[idx], self.item[idx], self.success[idx], indptr, self.part_indices[gather])


@dataclass
class BehaviorLog:
    records: list[BehaviorRecord]
    num_users: int
    num_items: int

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def columns(self) -> RecordColumns:
        """The records as columns, built on first use; ``records`` must not change after."""
        return RecordColumns.from_records(self.records)


class SocialGraph(CSR):
    """Symmetric friendship graph over the dense user id space; its own transpose."""

    def __init__(self, num_users: int, indptr: np.ndarray, indices: np.ndarray):
        super().__init__(num_users, num_users, indptr, indices)

    @classmethod
    def from_edges(cls, num_users: int, pairs: np.ndarray) -> "SocialGraph":
        """Build from an (E, 2) array of undirected pairs; symmetrizes, dedups, drops self-loops."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        both = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
        g = CSR.from_edges(num_users, num_users, both[:, 0], both[:, 1])
        return cls(num_users, g.indptr, g.indices)

    @property
    def T(self) -> "SocialGraph":
        return self

    def friends(self, u: int) -> np.ndarray:
        return self.neighbors(u)

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return self.indices.shape[0] // 2

    def undirected_pairs(self) -> np.ndarray:
        """Canonical (a < b) pair list, sorted; used for serialization."""
        rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.degrees)
        mask = rows < self.indices
        return np.stack([rows[mask], self.indices[mask]], axis=1)


@dataclass
class DatasetStats:
    num_users: int
    num_items: int
    num_behaviors: int
    num_success: int
    num_failed: int
    num_social_edges: int
    dropped_records: int = 0
    deduped_participants: int = 0
    dropped_social_edges: int = 0
    dropped_social_self_loops: int = 0
    # dense index -> original id
    user_ids: np.ndarray | None = field(default=None, repr=False)
    item_ids: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "num_users": self.num_users,
            "num_items": self.num_items,
            "num_behaviors": self.num_behaviors,
            "num_success": self.num_success,
            "num_failed": self.num_failed,
            "num_social_edges": self.num_social_edges,
            "dropped_records": self.dropped_records,
            "deduped_participants": self.deduped_participants,
            "dropped_social_edges": self.dropped_social_edges,
            "dropped_social_self_loops": self.dropped_social_self_loops,
        }

    def text(self) -> str:
        return "\n".join(f"{k}={v}" for k, v in self.to_dict().items())


def _parse_int(tok: str, where: str) -> int:
    try:
        value = int(tok)
    except ValueError:
        raise IngestError(f"{where}: not an integer: {tok!r}") from None
    if value < 0:
        raise IngestError(f"{where}: negative id: {value}")
    if value > INT64_MAX:
        raise IngestError(f"{where}: id {value} too large (max {INT64_MAX})")
    return value


def _check_range(where: str, what: str, value: int, bound: int) -> None:
    if value >= bound:
        raise IngestError(f"{where}: {what} id {value} out of range [0, {bound})")


def parse_behavior_file(
    path: str, bounds: tuple[int, int] | None = None
) -> tuple[list[BehaviorRecord], int, int]:
    """Parse without remapping. Returns (records, dropped_records, deduped_participants).

    With ``bounds`` = (num_users, num_items), every id is checked against
    the dense id space of a split.
    """
    records: list[BehaviorRecord] = []
    dropped = 0
    deduped = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{lineno}"
            fields = line.split("\t")
            if len(fields) != 4:
                raise IngestError(f"{where}: expected 4 tab-separated fields, got {len(fields)}")
            initiator = _parse_int(fields[0], where)
            item = _parse_int(fields[1], where)
            if fields[2] == "-":
                participants: list[int] = []
            elif fields[2] == "":
                raise IngestError(f"{where}: empty participant field (use '-')")
            else:
                participants = [_parse_int(t, where) for t in fields[2].split(",")]
            if fields[3] not in ("0", "1"):
                raise IngestError(f"{where}: success flag must be 0 or 1, got {fields[3]!r}")
            success = fields[3] == "1"
            if bounds is not None:
                _check_range(where, "user", initiator, bounds[0])
                _check_range(where, "item", item, bounds[1])
                for p in participants:
                    _check_range(where, "user", p, bounds[0])

            seen: dict[int, None] = {}
            for p in participants:
                if p in seen:
                    deduped += 1
                else:
                    seen[p] = None
            participants = list(seen)
            if initiator in seen:
                log.warning("%s: initiator %d listed as participant, record dropped", where, initiator)
                dropped += 1
                continue
            records.append(BehaviorRecord(initiator, item, tuple(participants), success))
    return records, dropped, deduped


def parse_social_file(path: str) -> np.ndarray:
    pairs: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{lineno}"
            fields = line.split("\t")
            if len(fields) != 2:
                raise IngestError(f"{where}: expected 2 tab-separated fields, got {len(fields)}")
            pairs.append((_parse_int(fields[0], where), _parse_int(fields[1], where)))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def ingest(behavior_path: str, social_path: str | None) -> tuple[BehaviorLog, SocialGraph, DatasetStats]:
    """Read raw files, remap ids to dense ranges, and report corpus statistics.

    Social edges touching users that never appear in the behavior file are
    dropped (counted, not fatal); self-loops likewise.
    """
    raw_records, dropped, deduped = parse_behavior_file(behavior_path)
    if not raw_records:
        raise IngestError(f"{behavior_path}: no usable behavior records")

    user_ids = sorted({r.initiator for r in raw_records} | {p for r in raw_records for p in r.participants})
    item_ids = sorted({r.item for r in raw_records})
    user_map = {orig: dense for dense, orig in enumerate(user_ids)}
    item_map = {orig: dense for dense, orig in enumerate(item_ids)}

    records = [
        BehaviorRecord(
            user_map[r.initiator],
            item_map[r.item],
            tuple(user_map[p] for p in r.participants),
            r.success,
        )
        for r in raw_records
    ]
    num_users = len(user_ids)
    num_items = len(item_ids)
    logb = BehaviorLog(records, num_users, num_items)

    dropped_social = 0
    self_loops = 0
    kept_pairs = []
    if social_path is not None:
        for a, b in parse_social_file(social_path):
            if a == b:
                self_loops += 1
                continue
            if a not in user_map or b not in user_map:
                dropped_social += 1
                continue
            kept_pairs.append((user_map[a], user_map[b]))
    social = SocialGraph.from_edges(
        num_users, np.asarray(kept_pairs, dtype=np.int64).reshape(-1, 2)
    )

    n_success = sum(1 for r in records if r.success)
    stats = DatasetStats(
        num_users=num_users,
        num_items=num_items,
        num_behaviors=len(records),
        num_success=n_success,
        num_failed=len(records) - n_success,
        num_social_edges=social.num_edges,
        dropped_records=dropped,
        deduped_participants=deduped,
        dropped_social_edges=dropped_social,
        dropped_social_self_loops=self_loops,
        user_ids=np.asarray(user_ids, dtype=np.int64),
        item_ids=np.asarray(item_ids, dtype=np.int64),
    )
    return logb, social, stats


def write_behaviors(path: str, records: list[BehaviorRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(r.line() + "\n")


def write_social(path: str, social: SocialGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in social.undirected_pairs():
            fh.write(f"{a}\t{b}\n")


# ---------------------------------------------------------------------------
# interaction sets / splitting / negative sampling


def user_interactions(logb: BehaviorLog) -> list[set[int]]:
    """Items each user touched in any role (initiated or joined)."""
    touched: list[set[int]] = [set() for _ in range(logb.num_users)]
    for r in logb.records:
        touched[r.initiator].add(r.item)
        for p in r.participants:
            touched[p].add(r.item)
    return touched


@dataclass
class DatasetSplit:
    train: BehaviorLog
    validation: dict[int, BehaviorRecord]
    test: dict[int, BehaviorRecord]
    eval_negatives: dict[int, np.ndarray]
    num_users: int
    num_items: int


def split_leave_one_out(
    logb: BehaviorLog,
    seed: int,
    num_negatives: int = DEFAULT_EVAL_NEGATIVES,
) -> DatasetSplit:
    """Hold out one test (and, where possible, one validation) record per user.

    Users need >= 2 initiator records to get a test record and >= 3 to also
    get a validation record, so their training share never empties. The
    per-user negative candidate lists are sampled here, once, from the items
    the user never touched in any role; they are frozen into the split so
    later evaluations stay paired. When fewer than ``num_negatives``
    untouched items exist the full complement is used.
    """
    rng = np.random.default_rng(seed)
    by_initiator: dict[int, list[int]] = {}
    for idx, r in enumerate(logb.records):
        by_initiator.setdefault(r.initiator, []).append(idx)

    held_out: set[int] = set()
    validation: dict[int, BehaviorRecord] = {}
    test: dict[int, BehaviorRecord] = {}
    touched = user_interactions(logb)
    eval_negatives: dict[int, np.ndarray] = {}
    all_items = np.arange(logb.num_items, dtype=np.int64)

    for u in sorted(by_initiator):
        rec_idx = by_initiator[u]
        if len(rec_idx) < 2:
            continue
        complement = np.setdiff1d(all_items, np.fromiter(touched[u], dtype=np.int64, count=len(touched[u])))
        if complement.shape[0] == 0:
            log.warning("user %d interacted with every item; excluded from evaluation", u)
            continue
        t = int(rng.choice(rec_idx))
        test[u] = logb.records[t]
        held_out.add(t)
        if len(rec_idx) >= 3:
            remaining = [i for i in rec_idx if i != t]
            v = int(rng.choice(remaining))
            validation[u] = logb.records[v]
            held_out.add(v)
        take = min(num_negatives, complement.shape[0])
        eval_negatives[u] = np.sort(rng.choice(complement, size=take, replace=False))

    train_records = [r for i, r in enumerate(logb.records) if i not in held_out]
    train = BehaviorLog(train_records, logb.num_users, logb.num_items)
    return DatasetSplit(train, validation, test, eval_negatives, logb.num_users, logb.num_items)


class _BlockDraws:
    """Uniform draws from ``[0, high)``, taken from ``rng`` in blocks of
    ``BLOCK`` and handed out one at a time.

    ``rng.integers(high, size=m)`` yields the values, and leaves the generator
    in the state, of ``m`` scalar ``rng.integers(high)`` calls. ``sync`` puts
    the generator where the draws handed out so far would have left it: it
    restores the state saved before the current block and redraws just the
    consumed part, so a sync wastes at most one block.
    """

    BLOCK = 4096

    def __init__(self, rng: np.random.Generator, high: int):
        self.rng = rng
        self.high = high
        self.block: list[int] = []
        self.left = iter(self.block)
        self.state: dict | None = None

    def next(self) -> int:
        value = next(self.left, None)
        if value is None:
            self.state = self.rng.bit_generator.state
            self.block = self.rng.integers(self.high, size=self.BLOCK).tolist()
            self.left = iter(self.block)
            value = next(self.left)
        return value

    def sync(self) -> None:
        unused = self.left.__length_hint__()
        if unused:
            self.rng.bit_generator.state = self.state
            self.rng.integers(self.high, size=len(self.block) - unused)
        self.block = []
        self.left = iter(self.block)


def sample_negatives(
    logb: BehaviorLog,
    k: int,
    rng: np.random.Generator,
    interactions: list[set[int]] | None = None,
) -> np.ndarray:
    """Draw k negative items per record, unobserved by the record's initiator.

    Within a record the k draws are distinct when enough untouched items
    exist; across records repeats are allowed. If a user has touched every
    item, draws fall back to uniform over all items except the positive.
    The values and the generator's final state are those of one scalar
    ``rng.integers(num_items)`` call per candidate, record by record.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    touched = interactions if interactions is not None else user_interactions(logb)
    num_items = logb.num_items
    cols = logb.columns
    draws = _BlockDraws(rng, num_items)
    picks: list[int] = []
    complements: dict[int, np.ndarray] = {}
    for u, item in zip(cols.initiator.tolist(), cols.item.tolist()):
        seen = touched[u]
        free = num_items - len(seen)
        if free >= k and free > 0:
            # rejection sampling first; exact complement when unlucky
            picked: list[int] = []
            chosen: set[int] = set()
            tries = 0
            while len(picked) < k and tries < 32 * k:
                cand = draws.next()
                tries += 1
                if cand in seen or cand in chosen:
                    continue
                picked.append(cand)
                chosen.add(cand)
            if len(picked) < k:
                comp = complements.get(u)
                if comp is None:
                    comp = np.setdiff1d(
                        np.arange(num_items, dtype=np.int64),
                        np.fromiter(seen, dtype=np.int64, count=len(seen)),
                    )
                    complements[u] = comp
                draws.sync()
                picked = rng.choice(comp, size=k, replace=False).tolist()
            picks.extend(picked)
        else:
            # exhausted universe: uniform over everything but the positive
            for _ in range(k):
                cand = draws.next()
                while cand == item and num_items > 1:
                    cand = draws.next()
                picks.append(cand)
    draws.sync()
    return np.array(picks, dtype=np.int64).reshape(len(cols), k)


# ---------------------------------------------------------------------------
# split directory round trip (used by the CLI)

SPLIT_FILES = ("train.tsv", "validation.tsv", "test.tsv", "social.tsv", "negatives.tsv", "stats.json")


def save_split_dir(
    outdir: str, split: DatasetSplit, social: SocialGraph, stats: DatasetStats, seed: int
) -> None:
    os.makedirs(outdir, exist_ok=True)
    write_behaviors(os.path.join(outdir, "train.tsv"), split.train.records)
    write_behaviors(os.path.join(outdir, "validation.tsv"), [split.validation[u] for u in sorted(split.validation)])
    write_behaviors(os.path.join(outdir, "test.tsv"), [split.test[u] for u in sorted(split.test)])
    write_social(os.path.join(outdir, "social.tsv"), social)
    with open(os.path.join(outdir, "negatives.tsv"), "w", encoding="utf-8") as fh:
        for u in sorted(split.eval_negatives):
            fh.write(f"{u}\t{','.join(str(i) for i in split.eval_negatives[u])}\n")
    payload = stats.to_dict()
    payload.update(
        {
            "split_seed": seed,
            "num_train": len(split.train.records),
            "num_validation_users": len(split.validation),
            "num_test_users": len(split.test),
        }
    )
    with open(os.path.join(outdir, "stats.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if stats.user_ids is not None:
        with open(os.path.join(outdir, "users.tsv"), "w", encoding="utf-8") as fh:
            for dense, orig in enumerate(stats.user_ids):
                fh.write(f"{dense}\t{orig}\n")
    if stats.item_ids is not None:
        with open(os.path.join(outdir, "items.tsv"), "w", encoding="utf-8") as fh:
            for dense, orig in enumerate(stats.item_ids):
                fh.write(f"{dense}\t{orig}\n")


def _load_records(datadir: str, name: str, num_users: int, num_items: int) -> list[BehaviorRecord]:
    records, _, _ = parse_behavior_file(os.path.join(datadir, name), (num_users, num_items))
    return records


def load_train_dir(datadir: str) -> tuple[BehaviorLog, SocialGraph, dict]:
    """The training side of a split directory: ``train.tsv``, ``social.tsv`` and ``stats.json``."""
    stats_path = os.path.join(datadir, "stats.json")
    with open(stats_path, encoding="utf-8") as fh:
        try:
            stats = json.load(fh)
        except json.JSONDecodeError as exc:
            raise IngestError(f"{stats_path}: not valid JSON: {exc}") from None
    for key in ("num_users", "num_items"):
        if not isinstance(stats, dict) or key not in stats:
            raise IngestError(f"{stats_path}: missing key {key!r}")
        if type(stats[key]) is not int or stats[key] < 0:
            raise IngestError(f"{stats_path}: {key!r} must be a non-negative integer, got {stats[key]!r}")
    num_users = stats["num_users"]
    num_items = stats["num_items"]
    train = BehaviorLog(_load_records(datadir, "train.tsv", num_users, num_items), num_users, num_items)
    social_path = os.path.join(datadir, "social.tsv")
    pairs = parse_social_file(social_path)
    if pairs.size and pairs.max() >= num_users:
        raise IngestError(f"{social_path}: user id {pairs.max()} out of range [0, {num_users})")
    social = SocialGraph.from_edges(num_users, pairs.reshape(-1, 2))
    return train, social, stats


def load_split_dir(datadir: str) -> tuple[DatasetSplit, SocialGraph, dict]:
    """``load_train_dir`` plus the evaluation side: held-out records and frozen negatives."""
    train, social, stats = load_train_dir(datadir)
    num_users, num_items = train.num_users, train.num_items
    validation = {r.initiator: r for r in _load_records(datadir, "validation.tsv", num_users, num_items)}
    test = {r.initiator: r for r in _load_records(datadir, "test.tsv", num_users, num_items)}
    negatives: dict[int, np.ndarray] = {}
    neg_path = os.path.join(datadir, "negatives.tsv")
    with open(neg_path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            where = f"{neg_path}:{lineno}"
            fields = line.split("\t")
            if len(fields) != 2:
                raise IngestError(f"{where}: expected 2 tab-separated fields, got {len(fields)}")
            u = _parse_int(fields[0], where)
            _check_range(where, "user", u, num_users)
            tokens = fields[1].split(",")
            try:
                # NumPy parses each token as int() does, and overflows past int64
                items = np.array(tokens, dtype=np.int64)
            except (ValueError, OverflowError):
                for tok in tokens:
                    _parse_int(tok, where)  # raises the located error
                raise
            if items.min() < 0 or items.max() >= num_items:
                bad = items[(items < 0) | (items >= num_items)][0]
                raise IngestError(f"{where}: item id {bad} out of range [0, {num_items})")
            negatives[u] = items
    split = DatasetSplit(train, validation, test, negatives, num_users, num_items)
    return split, social, stats
