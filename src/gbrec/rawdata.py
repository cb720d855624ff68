"""Raw text files in and out, and the split that ``gbrec prepare`` writes.

Only ``gbrec prepare`` (parse, remap, split, write the split directory) and
``gbrec synth`` (write the raw files) import this module; the other commands
read a split directory through ``data`` alone.

File grammar (bytes, one record per line, fields split by one tab):

* behaviors: ``initiator<TAB>item<TAB>p1,p2,...<TAB>success`` where the
  participant field is ``-`` when nobody joined and success is ``0`` or
  ``1``.
* social:    ``user_a<TAB>user_b`` (undirected friendship).

An id is ASCII digits, leading zeros allowed, with a value of at most
2^63 - 1: no sign, blank or other byte. Lines end in ``\\n``, ``\\r\\n`` or
``\\r``; empty lines are skipped, and the last line needs no line end. The
first line off this grammar, whatever bytes it holds, is one ``IngestError``
naming the file, the line and what breaks it.

Ingestion remaps arbitrary non-negative integer ids onto dense 0..P-1 /
0..Q-1 ranges (sorted by original id, so already-dense files map to
themselves and a write/re-ingest round trip is a fixed point).

``save_split_dir`` writes ``split.npz`` (through ``data.write_npz``) and
``stats.json``, which ``data.load_split_dir`` reads, and the split's ``.tsv``
export in the grammar above.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .data import (
    DEFAULT_EVAL_NEGATIVES,
    HELD_OUT,
    LOG_COLUMNS,
    SPLIT_FILE,
    BehaviorLog,
    DatasetSplit,
    IngestError,
    SocialGraph,
    item_dtype,
    user_interactions,
    write_npz,
)
from .kernels import CSR

log = logging.getLogger(__name__)

# key cells per block of split_leave_one_out's negative draw; bounds memory only
SPLIT_BLOCK_CELLS = 1 << 16
# tokens the text writers format at once
WRITE_CHUNK_TOKENS = 1 << 14
INT64_MAX = int(np.iinfo(np.int64).max)

# the raw-file grammar: a search for the start of the first line that is
# neither empty nor a line of its file kind. An id is ASCII digits; its value
# is bounded when it is read (see _read_lines). Each line is tried on its own:
# one match of every line, as (?:line\n)*, would hold state for each line,
# about 40 bytes per byte of the file
_ID = rb"[0-9]+"
BEHAVIOR_LINES = re.compile(rb"^(?!(?:%s\t%s\t(?:-|%s(?:,%s)*)\t[01])?$)" % (_ID, _ID, _ID, _ID), re.MULTILINE)
SOCIAL_LINES = re.compile(rb"^(?!(?:%s\t%s)?$)" % (_ID, _ID), re.MULTILINE)
# per byte of a good line: its ids number one more than its tabs and commas,
# less its dash (an empty participant list)
ID_STEPS = np.zeros(256, dtype=np.int8)
ID_STEPS[[ord("\t"), ord(",")]] = 1
ID_STEPS[ord("-")] = -1
BLANKS = bytes.maketrans(b",-", b"  ")


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


def _check_id_token(tok: str, where: str) -> None:
    """Raise the located error of a token that is not an id. An id is ASCII
    digits, leading zeros allowed, with a value of at most ``INT64_MAX``."""
    digits = tok.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise IngestError(f"{where}: not an integer: {tok!r}")
    value = digits.lstrip("0") or "0"
    if digits != tok:
        raise IngestError(f"{where}: negative id: -{value}")
    if len(value) > len(str(INT64_MAX)) or int(value) > INT64_MAX:
        raise IngestError(f"{where}: id {value} too large (max {INT64_MAX})")


def _check_behavior_line(fields: list[str], where: str) -> None:
    """Raise the located error of a behavior line that breaks the grammar."""
    if len(fields) != 4:
        raise IngestError(f"{where}: expected 4 tab-separated fields, got {len(fields)}")
    _check_id_token(fields[0], where)
    _check_id_token(fields[1], where)
    if fields[2] == "":
        raise IngestError(f"{where}: empty participant field (use '-')")
    if fields[2] != "-":
        for tok in fields[2].split(","):
            _check_id_token(tok, where)
    if fields[3] not in ("0", "1"):
        raise IngestError(f"{where}: success flag must be 0 or 1, got {fields[3]!r}")


def _read_lines(path: str, grammar: re.Pattern) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple | None]:
    """The good lines of ``path``: every id on them, in order; the number of
    ids on each non-empty one, and its line number; and then the first bad
    line as ``(fields, "path:line")``, or None.

    The file is read as bytes, with ``\\r\\n`` and ``\\r`` read as ``\\n``. The
    good lines are the lines before the one that ``grammar`` finds, up to the
    first that holds an id past ``INT64_MAX``. One uint64 ``np.fromstring``
    reads every id of those lines, with commas and the dash of an empty
    participant list read as blanks; an id too long for uint64 reads as
    2^64 - 1, so it fails the bound too. The bad line is decoded with
    ``backslashreplace``, so its error can name any byte.
    """
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    stop = grammar.search(data)
    end = stop.start() if stop else len(data)
    good = np.frombuffer(data, dtype=np.uint8, count=end)
    ends = np.flatnonzero(good == ord("\n"))
    starts = np.r_[0, ends + 1][:-1]
    full = np.flatnonzero(ends > starts)
    counts = np.add.reduceat(ID_STEPS[good], starts[full], dtype=np.int64) + 1
    last = np.cumsum(counts)
    ids = np.empty(0, dtype=np.uint64)
    if full.size:  # np.fromstring reads a text of blanks alone as one 0
        ids = np.fromstring(data[:end].translate(BLANKS), dtype=np.uint64, sep=" ")
    over = np.flatnonzero(ids > INT64_MAX)
    if over.size:  # the good lines end before the line of the first id past the bound
        k = int(np.searchsorted(last, over[0], side="right"))
        end = starts[full[k]]
        ids, counts, full = ids[: last[k] - counts[k]], counts[:k], full[:k]
    bad = None
    if end < len(data):
        lineno = data.count(b"\n", 0, end) + 1
        bad = data[end : data.index(b"\n", end)].decode("utf-8", "backslashreplace").split("\t"), f"{path}:{lineno}"
    return ids.astype(np.int64), counts, full + 1, bad


def parse_behavior_file(path: str) -> tuple[BehaviorLog, int, int]:
    """Parse without remapping. Returns (log, dropped_records,
    deduped_participants); the log spans ids up to the largest one read.

    The lines before the first bad one are kept, dropped and deduplicated as
    in a clean file, and then its error is raised.
    """
    ids, counts, linenos, bad = _read_lines(path, BEHAVIOR_LINES)
    last = np.cumsum(counts) - 1  # each line's success flag
    first = last - counts + 1  # each line's initiator
    listed = np.ones(ids.shape[0], dtype=bool)
    listed[first] = listed[first + 1] = listed[last] = False
    part_indptr = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts - 3, out=part_indptr[1:])
    raw = BehaviorLog(ids[first], ids[first + 1], ids[last] == 1, part_indptr, ids[listed], 0, 0)

    # participants: first occurrences per record, in order; a stable sort by
    # (record, id) puts each repeat right after the occurrence it repeats
    n = len(raw)
    rec = np.repeat(np.arange(n), raw.num_participants)
    members = raw.part_indices
    order = np.lexsort((members, rec))
    repeat = np.zeros(members.shape[0], dtype=bool)
    repeat[order[1:]] = (members[order[1:]] == members[order[:-1]]) & (rec[order[1:]] == rec[order[:-1]])
    dropped = np.zeros(n, dtype=bool)
    dropped[rec[members == raw.initiator[rec]]] = True
    kept = np.flatnonzero(~dropped)
    for i in np.flatnonzero(dropped).tolist():
        log.warning("%s: initiator %d listed as participant, record dropped", f"{path}:{linenos[i]}", raw.initiator[i])
    if bad is not None:
        _check_behavior_line(*bad)

    keep = ~repeat & ~dropped[rec]
    part_indptr = np.zeros(kept.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rec[keep], minlength=n)[kept], out=part_indptr[1:])
    initiator, part_indices = raw.initiator[kept], members[keep]
    num_users = int(max(initiator.max(initial=-1), part_indices.max(initial=-1))) + 1
    num_items = int(raw.item[kept].max(initial=-1)) + 1
    logb = BehaviorLog(initiator, raw.item[kept], raw.success[kept], part_indptr, part_indices, num_users, num_items)
    return logb, int(np.count_nonzero(dropped)), int(np.count_nonzero(repeat))


def parse_social_file(path: str) -> np.ndarray:
    """``(E, 2)`` id pairs, or the first bad line's error."""
    ids, _, _, bad = _read_lines(path, SOCIAL_LINES)
    if bad is not None:
        fields, where = bad
        if len(fields) != 2:
            raise IngestError(f"{where}: expected 2 tab-separated fields, got {len(fields)}")
        for tok in fields:
            _check_id_token(tok, where)
    return ids.reshape(-1, 2)


def ingest(behavior_path: str, social_path: str | None) -> tuple[BehaviorLog, SocialGraph, DatasetStats]:
    """Read raw files, remap ids to dense ranges, and report corpus statistics.

    Social edges touching users that never appear in the behavior file are
    dropped (counted, not fatal); self-loops likewise.
    """
    raw, dropped, deduped = parse_behavior_file(behavior_path)
    n = len(raw)
    if n == 0:
        raise IngestError(f"{behavior_path}: no usable behavior records")
    user_ids, users = np.unique(np.concatenate([raw.initiator, raw.part_indices]), return_inverse=True)
    item_ids, items = np.unique(raw.item, return_inverse=True)
    num_users = user_ids.shape[0]
    logb = BehaviorLog(users[:n], items, raw.success, raw.part_indptr, users[n:], num_users, item_ids.shape[0])

    dropped_social = 0
    self_loops = 0
    kept = np.empty((0, 2), dtype=np.int64)
    if social_path is not None:
        pairs = parse_social_file(social_path)
        loop = pairs[:, 0] == pairs[:, 1]
        dense = np.searchsorted(user_ids, pairs)
        known = (user_ids[np.minimum(dense, num_users - 1)] == pairs).all(axis=1)
        self_loops = int(np.count_nonzero(loop))
        dropped_social = int(np.count_nonzero(~loop & ~known))
        kept = dense[~loop & known]
    social = SocialGraph.from_edges(num_users, kept)

    n_success = int(np.count_nonzero(logb.success))
    stats = DatasetStats(
        num_users=num_users,
        num_items=logb.num_items,
        num_behaviors=n,
        num_success=n_success,
        num_failed=n - n_success,
        num_social_edges=social.num_edges,
        dropped_records=dropped,
        deduped_participants=deduped,
        dropped_social_edges=dropped_social,
        dropped_social_self_loops=self_loops,
        user_ids=user_ids,
        item_ids=item_ids,
    )
    return logb, social, stats


def _names(ids: np.ndarray) -> np.ndarray:
    """The decimal text of the non-negative ``ids``, NUL-padded to one ``S{width}``."""
    return ids.astype(f"S{len(str(int(ids.max(initial=0))))}")


def _id_names(size: int) -> np.ndarray:
    """The names of ids ``0..size-1`` and, at ``size``, ``-``: an empty list."""
    names = _names(np.arange(size + 1))
    names[size] = b"-"
    return names


def _write_rows(path: str, names: np.ndarray, head, counts: np.ndarray, values, tail=()) -> None:
    """Write one tab-separated line per row ``r``: its ``head`` columns, its
    ``counts[r]`` list values joined by commas (the last of ``names`` when it
    has none), then its ``tail`` columns. The columns, and ``values(a, b)``,
    the lists of rows ``a`` to ``b - 1`` end to end, hold indices into
    ``names``, a NUL-padded ``S{width}`` table of token texts.

    Whole lines are formatted about ``WRITE_CHUNK_TOKENS`` tokens at a time.
    """
    slots = np.maximum(counts, 1)  # list tokens per line
    ends = np.cumsum(slots + len(head) + len(tail))
    cuts = np.searchsorted(ends, np.arange(WRITE_CHUNK_TOKENS, ends[-1] if ends.size else 0, WRITE_CHUNK_TOKENS))
    bounds = np.unique(np.r_[0, cuts + 1, ends.size]).tolist()
    with open(path, "wb") as fh:
        for a, b in zip(bounds, bounds[1:]):
            cols = [col[a:b] for col in head], [col[a:b] for col in tail]
            fh.write(_line_text(names, *cols, counts[a:b], slots[a:b], values(a, b)))


def _line_text(names: np.ndarray, head, tail, counts, slots, values) -> bytes:
    """The text of whole lines (see ``_write_rows``): each token's name and
    its separator byte fill one cell of a packed array, and one ``translate``
    drops the names' padding NULs."""
    lengths = slots + len(head) + len(tail)
    ends = np.cumsum(lengths)
    starts = ends - lengths  # each line's first token
    first = starts + len(head)  # each line's first list token
    tokens = np.empty(ends[-1], dtype=np.int64)
    cells = np.empty(ends[-1], dtype=[("name", names.dtype), ("sep", np.uint8)])
    seps = cells["sep"]
    seps[:] = ord(",")
    listed = np.ones(ends[-1], dtype=bool)
    columns = [starts + j for j in range(len(head))] + [first + slots + j for j in range(len(tail))]
    for at, col in zip(columns, [*head, *tail]):
        tokens[at] = col
        seps[at] = ord("\t")
        listed[at] = False
    empty = first[counts == 0]
    tokens[empty] = names.shape[0] - 1
    listed[empty] = False
    tokens[listed] = values
    seps[first + slots - 1] = ord("\t")
    seps[ends - 1] = ord("\n")
    cells["name"] = names[tokens]
    return cells.tobytes().translate(None, b"\0")


def write_behaviors(path: str, logb: BehaviorLog) -> None:
    ptr, parts = logb.part_indptr, logb.part_indices
    size = 1 + max(1, *(int(col.max(initial=0)) for col in (logb.initiator, logb.item, parts)))
    _write_rows(
        path, _id_names(size), (logb.initiator, logb.item), np.diff(ptr), lambda a, b: parts[ptr[a] : ptr[b]],
        (logb.success,),
    )


def write_social(path: str, social: SocialGraph) -> None:
    pairs = social.undirected_pairs()
    ones = np.ones(pairs.shape[0], dtype=np.int64)
    _write_rows(path, _id_names(social.num_rows), (pairs[:, 0],), ones, lambda a, b: pairs[a:b, 1])


def write_negatives(path: str, negatives: CSR) -> None:
    """``user<TAB>i1,i2,...`` per user with a non-empty row, in ascending user order."""
    ptr, ids = negatives.indptr, negatives.indices
    counts = negatives.degrees
    users = np.flatnonzero(counts)
    size = max(negatives.num_rows, negatives.num_cols)
    _write_rows(path, _id_names(size), (users,), counts[users], lambda a, b: ids[ptr[users[a]] : ptr[users[b - 1] + 1]])


def write_id_map(path: str, ids: np.ndarray) -> None:
    """``dense<TAB>original`` per id, in dense order."""
    n = ids.shape[0]
    names = _names(np.concatenate([np.arange(n), ids]))
    _write_rows(path, names, (np.arange(n),), np.ones(n, dtype=np.int64), lambda a, b: np.arange(n + a, n + b))


# ---------------------------------------------------------------------------
# the leave-one-out split


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

    The eligible users (>= 2 records and an untouched item), in ascending id
    order, take three bulk draws from ``np.random.default_rng(seed)``:

    1. ``rng.integers(counts)`` over their record counts: the test record's
       position among the user's records, in log order.
    2. ``rng.integers(counts - 1)`` over the users with >= 3 records: the
       validation record's position among the others (a draw at or past the
       test position moves one further on).
    3. ``rng.random`` keys, one row of ``num_items`` per user, in blocks of
       about ``SPLIT_BLOCK_CELLS`` keys. Touched items' keys are set to 2.0,
       and the user's negatives are the items of its ``min(num_negatives,
       untouched)`` smallest keys, sorted by id: a uniform draw without
       replacement. Each key is one double of the stream, so the block size
       bounds memory and leaves the split as it is.

    The negatives' ids go straight into one ``item_dtype(num_items)`` array,
    the dtype ``split.npz`` stores them in; no int64 copy of them is made.
    """
    if num_negatives < 1:
        raise ValueError(f"num_negatives must be >= 1, got {num_negatives}")
    rng = np.random.default_rng(seed)
    touched = user_interactions(logb)
    num_items = logb.num_items
    counts = np.bincount(logb.initiator, minlength=logb.num_users)
    degrees = touched.degrees
    for u in np.flatnonzero((counts >= 2) & (degrees >= num_items)).tolist():
        log.warning("user %d interacted with every item; excluded from evaluation", u)
    users = np.flatnonzero((counts >= 2) & (degrees < num_items))
    by_initiator = np.argsort(logb.initiator, kind="stable")
    first = (np.cumsum(counts) - counts)[users]  # each user's first record in by_initiator
    test_pos = rng.integers(counts[users])
    three = counts[users] >= 3
    val_pos = rng.integers(counts[users[three]] - 1)
    val_pos += val_pos >= test_pos[three]
    test = by_initiator[first + test_pos]
    validation = by_initiator[first[three] + val_pos]

    indptr = np.zeros(logb.num_users + 1, dtype=np.int64)
    indptr[users + 1] = np.minimum(num_negatives, num_items - degrees[users])
    np.cumsum(indptr, out=indptr)
    ids = np.empty(indptr[-1], dtype=item_dtype(num_items))
    kth = min(num_negatives, num_items) - 1
    rows = max(1, SPLIT_BLOCK_CELLS // max(num_items, 1))
    for a in range(0, users.shape[0], rows):
        block = users[a : a + rows]
        keys = rng.random((block.shape[0], num_items))
        deg = degrees[block]
        offsets = np.cumsum(deg) - deg
        cells = np.repeat(touched.indptr[block] - offsets, deg) + np.arange(offsets[-1] + deg[-1])
        keys[np.repeat(np.arange(block.shape[0]), deg), touched.indices[cells]] = 2.0
        pick = np.argpartition(keys, kth, axis=1)[:, : kth + 1]
        pick[np.take_along_axis(keys, pick, axis=1) == 2.0] = num_items  # touched: sorts past every id
        pick.sort(axis=1)
        ids[indptr[block[0]] : indptr[block[-1] + 1]] = pick[pick < num_items]

    keep = np.ones(len(logb), dtype=bool)
    keep[test] = False
    keep[validation] = False
    train = logb.take(np.flatnonzero(keep))
    eval_negatives = CSR(logb.num_users, num_items, indptr, ids)
    return DatasetSplit(
        train, logb.take(validation), logb.take(test), eval_negatives, logb.num_users, logb.num_items
    )


# ---------------------------------------------------------------------------
# the split directory's writer


def _split_arrays(split: DatasetSplit, social: SocialGraph) -> dict[str, np.ndarray]:
    """The members of ``split.npz``: the split's own arrays, not copies."""
    arrays = {
        f"{log}_{col}": getattr(getattr(split, log), col) for log in ("train", *HELD_OUT) for col, _ in LOG_COLUMNS
    }
    arrays["social_pairs"] = social.undirected_pairs()
    arrays["negatives_indptr"] = split.eval_negatives.indptr
    arrays["negatives_indices"] = split.eval_negatives.indices
    return arrays


def save_split_dir(
    outdir: str, split: DatasetSplit, social: SocialGraph, stats: DatasetStats, seed: int
) -> None:
    """Write ``split.npz`` and ``stats.json``, which the loaders read, and the
    ``.tsv`` export of the same split."""
    os.makedirs(outdir, exist_ok=True)
    write_npz(os.path.join(outdir, SPLIT_FILE), _split_arrays(split, social))
    write_behaviors(os.path.join(outdir, "train.tsv"), split.train)
    write_behaviors(os.path.join(outdir, "validation.tsv"), split.validation)
    write_behaviors(os.path.join(outdir, "test.tsv"), split.test)
    write_social(os.path.join(outdir, "social.tsv"), social)
    write_negatives(os.path.join(outdir, "negatives.tsv"), split.eval_negatives)
    payload = stats.to_dict()
    payload.update(
        {
            "split_seed": seed,
            "num_train": len(split.train),
            "num_validation_users": len(split.validation),
            "num_test_users": len(split.test),
        }
    )
    with open(os.path.join(outdir, "stats.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, ids in (("users.tsv", stats.user_ids), ("items.tsv", stats.item_ids)):
        if ids is not None:
            write_id_map(os.path.join(outdir, name), ids)
