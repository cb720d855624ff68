"""The record layout, the split, and the split directory's reader.

``BehaviorLog`` holds group-buying launches as columns and ``SocialGraph``
the friendships; a ``DatasetSplit`` is a training log, held-out logs and
their frozen evaluation negatives. ``user_interactions`` and
``sample_negatives`` serve training.

A split directory, written by ``rawdata.save_split_dir``, is read by gbrec
from ``split.npz`` alone, whose members ``SPLIT_MEMBERS`` lists: the id
space, the training and held-out logs' columns, the social pairs, the frozen
negatives as one ``indptr``/``indices`` pair, and their sha256 as ``gbrec
prepare`` computed it. Its ``stats.json`` and ``.tsv`` files are a report
and an export for people and for tools outside gbrec; no loader reads them.

The negatives are the split's largest array, up to
``DEFAULT_EVAL_NEGATIVES`` ids per held-out user. Their ids are drawn,
stored, read and ranked in ``item_dtype(num_items)``, the narrowest unsigned
dtype that holds every item id: one byte per id up to 256 items, two up to
65,536. Every other id array is int64.

``split.npz``, checkpoints and the generator's ``planted.npz`` share one
on-disk container, an uncompressed ``.npz``: ``write_npz`` writes it, and
``read_npz`` reads it member by member, checking each member's dtype, shape
and CRC-32, with every failure one error of the caller's class that names
the file. The reader refuses bytes outside the zip, before its first member
or after its end record, which the zip format itself would skip, and a
member that the caller's format does not list. Every array file a gbrec
command reads goes through them; ``checkpoint`` holds what a checkpoint's
members are.

Raw text files, their grammar, the split itself and the split directory's
writer are in ``rawdata``, which only ``gbrec prepare`` and ``gbrec synth``
import.
"""

from __future__ import annotations

import functools
import io
import math
import os
import tokenize
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .kernels import CSR

DEFAULT_EVAL_NEGATIVES = 999
# redraw rounds of sample_negatives before a row takes its exact complement
REDRAW_ROUNDS = 32


class IngestError(ValueError):
    pass


def item_dtype(num_items: int) -> np.dtype:
    """The dtype of the frozen negatives' item ids: the narrowest unsigned
    integer that holds ``num_items - 1`` (uint8 for 0 items)."""
    return np.min_scalar_type(max(num_items - 1, 0))


@dataclass(eq=False)
class BehaviorLog:
    """Group-buying launches as columns, over ``num_users`` users and
    ``num_items`` items: one entry per record in ``initiator``, ``item`` and
    ``success``, and record ``i``'s participants, in their recorded order, at
    ``part_indices[part_indptr[i]:part_indptr[i+1]]``.

    The participant lists are kept as given (not sorted), so anything expanded
    from them keeps the records' own order.
    """

    initiator: np.ndarray
    item: np.ndarray
    success: np.ndarray
    part_indptr: np.ndarray
    part_indices: np.ndarray
    num_users: int
    num_items: int

    def __len__(self) -> int:
        return self.initiator.shape[0]

    @property
    def num_participants(self) -> np.ndarray:
        return np.diff(self.part_indptr)

    def take(self, idx) -> "BehaviorLog":
        """The records at ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        starts = self.part_indptr[idx]
        counts = self.part_indptr[idx + 1] - starts
        indptr = np.zeros(idx.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        gather = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1], dtype=np.int64)
        return BehaviorLog(
            self.initiator[idx], self.item[idx], self.success[idx], indptr, self.part_indices[gather],
            self.num_users, self.num_items,
        )


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


# ---------------------------------------------------------------------------
# interactions / the split / negative sampling


def user_interactions(logb: BehaviorLog) -> CSR:
    """Items each user touched in any role (initiated or joined): row ``u``
    lists them sorted, once each."""
    users = np.concatenate([logb.initiator, logb.part_indices])
    items = np.concatenate([logb.item, np.repeat(logb.item, logb.num_participants)])
    return CSR.from_edges(logb.num_users, logb.num_items, users, items)


@dataclass
class DatasetSplit:
    """A training log, and held-out logs of one record per user in ascending
    user order."""

    train: BehaviorLog
    validation: BehaviorLog
    test: BehaviorLog
    # users x items: row u holds user u's frozen candidates, sorted; empty when
    # u has none. Its indices are item_dtype(num_items), not int64.
    eval_negatives: CSR
    num_users: int
    num_items: int


def sample_negatives(logb: BehaviorLog, k: int, rng: np.random.Generator, interactions: CSR) -> np.ndarray:
    """Draw k negative items per record, unobserved by the record's initiator.

    A record whose initiator left at least k items untouched gets k distinct
    untouched items, every ordered k-tuple of them equally likely; across
    records repeats are allowed. Otherwise its k draws are uniform over all
    items except the positive (item 0 when there is only one item).

    The draws are made in bulk: one n × k block, whose slots are rejected
    when the initiator touched the item or when they repeat an earlier slot
    of their row. Only rejected slots are redrawn, for up to
    ``REDRAW_ROUNDS`` rounds; a row still short then takes ``rng.choice``
    over its exact complement. The process sees items only through equality
    and touchedness, so it stays uniform.
    ``interactions`` is ``user_interactions(logb)``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    num_items, users = logb.num_items, logb.initiator
    negs = np.empty((len(logb), k), dtype=np.int64)
    degrees = interactions.degrees
    short = degrees[users] > num_items - k

    # fewer than k untouched items: one shifted draw skips the positive
    rows = np.flatnonzero(short)
    if num_items > 1:
        draws = rng.integers(num_items - 1, size=(rows.size, k))
        negs[rows] = draws + (draws >= logb.item[rows, None])
    else:
        negs[rows] = 0

    # touched (user, item) pairs as sorted keys u·Q + i
    keys = np.repeat(np.arange(interactions.num_rows, dtype=np.int64) * num_items, degrees) + interactions.indices
    earlier = np.tri(k, k, -1, dtype=bool)

    def rejected(rows: np.ndarray, fresh: np.ndarray) -> np.ndarray:
        """Which slots of ``rows`` repeat an earlier slot or, among the
        ``fresh`` ones, hold a touched item."""
        block = negs[rows]
        bad = ((block[:, :, None] == block[:, None, :]) & earlier).any(axis=2)
        r, c = np.nonzero(fresh)
        key = users[rows[r]] * num_items + block[r, c]
        bad[r, c] |= keys[np.minimum(np.searchsorted(keys, key), keys.size - 1)] == key
        return bad

    rows = np.flatnonzero(~short)
    negs[rows] = rng.integers(num_items, size=(rows.size, k))
    bad = rejected(rows, np.ones((rows.size, k), dtype=bool))
    for _ in range(REDRAW_ROUNDS):
        pending = bad.any(axis=1)
        rows, bad = rows[pending], bad[pending]
        if not rows.size:
            break
        r, c = np.nonzero(bad)
        negs[rows[r], c] = rng.integers(num_items, size=r.size)
        bad = rejected(rows, bad)
    for i in rows[bad.any(axis=1)].tolist():
        complement = np.setdiff1d(
            np.arange(num_items, dtype=np.int64), interactions.neighbors(users[i]), assume_unique=True
        )
        negs[i] = rng.choice(complement, size=k, replace=False)
    return negs


# ---------------------------------------------------------------------------
# the .npz container of split.npz and checkpoints

# bytes per read or write of a member's data
NPZ_CHUNK_BYTES = 1 << 20
# a zip's end record: its signature, 16 bytes of counts and offsets, and
# the 2-byte length of a comment, which write_npz leaves empty
ZIP_END_BYTES = 22
# what damaged bytes raise from the zip reader (a bad CRC-32, directory or
# local header; a method, flag or length that a flipped bit changed; an
# unknown compression method) and from NumPy's .npy header parser
NPZ_READ_ERRORS = (
    zipfile.BadZipFile, zlib.error, EOFError, OSError, RuntimeError, NotImplementedError, ValueError,
    SyntaxError, tokenize.TokenError,
)


def write_npz(path: str, arrays: dict[str, np.ndarray]) -> None:
    """An uncompressed ``.npz`` that ``np.load`` reads: per array, a member
    ``<name>.npy`` of an ``.npy`` 1.0 header and the array's bytes, written
    from the array's own memory ``NPZ_CHUNK_BYTES`` at a time, so no array is
    copied. Members carry a fixed timestamp: equal arrays give equal bytes."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            header = io.BytesIO()
            np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(arr))
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.file_size = header.tell() + arr.nbytes
            body = memoryview(arr.reshape(-1)).cast("B")
            with zf.open(info, "w") as fh:
                fh.write(header.getvalue())
                for at in range(0, len(body), NPZ_CHUNK_BYTES):
                    fh.write(body[at : at + NPZ_CHUNK_BYTES])


def _read_member(zf: zipfile.ZipFile, error: type, name: str, dtype: np.dtype, tail: tuple = ()) -> np.ndarray:
    """Member ``<name>.npy`` of ``zf``, which must hold a C-order array of
    ``dtype`` and shape ``(n, *tail)`` whose bytes fill the member. The header
    is checked before any data is read, so no object array (no pickle) is
    ever read, and no array larger than the member is made. Reading the
    member to its end checks its CRC-32. A problem is one ``error``."""
    try:
        info = zf.getinfo(f"{name}.npy")
    except KeyError:
        raise error(f"{name}: no such array") from None
    with zf.open(info) as fh:
        if np.lib.format.read_magic(fh) != (1, 0):
            raise error(f"{name}: not an .npy 1.0 array")
        shape, fortran, stored = np.lib.format.read_array_header_1_0(fh)
        if stored != dtype or fortran or len(shape) != 1 + len(tail) or tuple(shape[1:]) != tail:
            want = ", ".join(["n", *map(str, tail)]) if tail else "n,"
            raise error(f"{name}: {stored} array of shape {tuple(shape)}, expected {dtype} of shape ({want})")
        if fh.tell() + math.prod(shape) * dtype.itemsize != info.file_size:
            raise error(f"{name}: shape {tuple(shape)} does not fill the member's {info.file_size} bytes")
        arr = np.empty(shape, dtype)
        body = memoryview(arr.reshape(-1)).cast("B")
        for at in range(0, len(body), NPZ_CHUNK_BYTES):
            chunk = body[at : at + NPZ_CHUNK_BYTES]
            if fh.readinto(chunk) != len(chunk):
                raise error(f"{name}: truncated")
    return arr


@contextmanager
def read_npz(path: str, error: type, remedy: str):
    """The ``.npz`` at ``path``, opened for the block as ``(read, only)``:
    ``read(name, dtype, tail=())`` is ``_read_member``, and ``only(names)``,
    given the format's full member list, refuses a member it does not name.
    A file that cannot be opened is the ``OSError`` of ``open``; after that,
    every failure to read, bytes outside the zip, and every ``error`` the
    block raises, leave as one ``error`` that names the file and ends in
    ``remedy``."""
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as zf:
                # zipfile reads past bytes on either side of the zip, shifting every offset by a prefix
                first = min((info.header_offset for info in zf.infolist()), default=0)
                if first:
                    raise error(f"{first} bytes before the first member")
                fh.seek(-ZIP_END_BYTES, os.SEEK_END)
                end = fh.read(ZIP_END_BYTES)
                if end[:4] != b"PK\x05\x06" or end[-2:] != b"\0\0":
                    raise error("bytes after the zip end record")

                def only(names) -> None:
                    extra = {info.filename for info in zf.infolist()} - {f"{name}.npy" for name in names}
                    if extra:
                        raise error(f"{min(extra)}: a member this format does not list")

                yield functools.partial(_read_member, zf, error), only
        except error as exc:
            raise error(f"{path}: {exc}; {remedy}") from None
        except NPZ_READ_ERRORS as exc:
            raise error(f"{path}: unreadable: {type(exc).__name__}: {exc}; {remedy}") from None


# ---------------------------------------------------------------------------
# the split directory's reader

SPLIT_FILE = "split.npz"
HELD_OUT = ("validation", "test")
I64 = np.dtype(np.int64)
# a BehaviorLog's columns as split.npz stores them, as "<log>_<column>"
LOG_COLUMNS = (
    ("initiator", I64), ("item", I64), ("success", np.dtype(bool)), ("part_indptr", I64), ("part_indices", I64),
)
# every member of split.npz, in file order: its name, dtype and shape's tail.
# The negatives' dtype, None here, is item_dtype of the id space.
SPLIT_MEMBERS = (
    ("id_space", I64, ()),  # num_users, num_items
    *((f"{log}_{col}", dtype, ()) for log in ("train", *HELD_OUT) for col, dtype in LOG_COLUMNS),
    ("social_pairs", I64, (2,)),
    ("negatives_indptr", I64, ()),
    ("negatives_indices", None, ()),
    ("negatives_sha256", np.dtype(np.uint8), ()),  # the 32 digest bytes
)
REPREPARE = "write this split dir again with gbrec prepare"


def _read_split(datadir: str, held_out: bool):
    """``(path, num_users, num_items, arrays)``: the id space, and the
    members of ``split.npz`` that hold the training log and the social pairs
    and, with ``held_out``, all the others. The member list, shapes and
    dtypes are checked here, each failure one ``IngestError`` naming the
    file that asks for the split dir to be written again."""
    path = os.path.join(datadir, SPLIT_FILE)
    if not os.path.exists(path):
        raise IngestError(f"{path}: no such file; {REPREPARE}")
    with read_npz(path, IngestError, REPREPARE) as (read, only):
        only(name for name, _, _ in SPLIT_MEMBERS)
        id_space = read("id_space", I64)
        if id_space.shape[0] != 2:
            raise IngestError(f"id_space holds {id_space.shape[0]} values, expected 2 (num_users, num_items)")
        if (id_space < 0).any():
            raise IngestError(f"id_space: {id_space.tolist()} holds a negative size")
        num_users, num_items = id_space.tolist()
        arrays = {
            name: read(name, item_dtype(num_items) if dtype is None else dtype, tail)
            for name, dtype, tail in SPLIT_MEMBERS[1:]
            if held_out or name.startswith(("train_", "social_"))
        }
        if held_out and arrays["negatives_sha256"].shape[0] != 32:
            raise IngestError(f"negatives_sha256 holds {arrays['negatives_sha256'].shape[0]} bytes, expected 32")
    return path, num_users, num_items, arrays


def _check_ids(where: str, name: str, what: str, ids: np.ndarray, bound: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= bound):
        at = tuple(np.argwhere((ids < 0) | (ids >= bound))[0].tolist())
        raise IngestError(f"{where}: {name}[{', '.join(map(str, at))}]: {what} id {ids[at]} out of range [0, {bound})")


def _check_indptr(where: str, name: str, indptr: np.ndarray, rows: int, size: int) -> None:
    """``indptr`` must hold ``rows + 1`` offsets rising from 0 to ``size``."""
    if indptr.shape[0] != rows + 1:
        raise IngestError(f"{where}: {name} holds {indptr.shape[0]} offsets, expected {rows + 1}")
    if indptr[0] != 0 or indptr[-1] != size or (indptr[1:] < indptr[:-1]).any():
        raise IngestError(f"{where}: {name} does not rise from 0 to {size}")


def _checked_log(where: str, arrays: dict, log: str, num_users: int, num_items: int) -> BehaviorLog:
    initiator, item, success, part_indptr, part_indices = (arrays[f"{log}_{col}"] for col, _ in LOG_COLUMNS)
    n = initiator.shape[0]
    for col, values in (("item", item), ("success", success)):
        if values.shape[0] != n:
            raise IngestError(f"{where}: {log}_{col} holds {values.shape[0]} records, {log}_initiator {n}")
    _check_indptr(where, f"{log}_part_indptr", part_indptr, n, part_indices.shape[0])
    _check_ids(where, f"{log}_initiator", "user", initiator, num_users)
    _check_ids(where, f"{log}_item", "item", item, num_items)
    _check_ids(where, f"{log}_part_indices", "user", part_indices, num_users)
    return BehaviorLog(initiator, item, success, part_indptr, part_indices, num_users, num_items)


def _checked_social(where: str, arrays: dict, num_users: int) -> SocialGraph:
    pairs = arrays["social_pairs"]
    _check_ids(where, "social_pairs", "user", pairs, num_users)
    return SocialGraph.from_edges(num_users, pairs)


def load_train_dir(datadir: str) -> tuple[BehaviorLog, SocialGraph]:
    """The training side of a split directory: the training log and the
    social graph from ``split.npz``."""
    where, num_users, num_items, arrays = _read_split(datadir, held_out=False)
    return _checked_log(where, arrays, "train", num_users, num_items), _checked_social(where, arrays, num_users)


def load_split_dir(datadir: str) -> tuple[DatasetSplit, SocialGraph, str]:
    """``load_train_dir`` plus the evaluation side: the held-out logs, each
    one record per user in ascending user order, the frozen negatives, a
    non-empty row of sorted distinct items for every held-out user, kept in
    ``item_dtype(num_items)`` as stored, and the negatives' sha256 as
    ``gbrec prepare`` computed it, in hex.

    Every id is checked against the split's id space, and every offset
    array for rising from 0 to the length of the array it indexes.
    """
    where, num_users, num_items, arrays = _read_split(datadir, held_out=True)
    logs = {log: _checked_log(where, arrays, log, num_users, num_items) for log in ("train", *HELD_OUT)}
    ptr, ids = arrays["negatives_indptr"], arrays["negatives_indices"]
    _check_indptr(where, "negatives_indptr", ptr, num_users, ids.shape[0])
    _check_ids(where, "negatives_indices", "item", ids, num_items)
    # each id rises over the one before it, except where a row starts
    rising = ids[1:] > ids[:-1]
    starts = ptr[1:-1]
    rising[starts[(starts > 0) & (starts < ids.shape[0])] - 1] = True
    if not rising.all():
        at = int(np.argmin(rising)) + 1
        user = int(np.searchsorted(ptr, at, side="right")) - 1
        raise IngestError(f"{where}: negatives_indices[{at}]: user {user}'s negatives are not sorted and distinct")
    for log in HELD_OUT:
        users = logs[log].initiator
        step = users[1:] - users[:-1]
        if (step <= 0).any():
            at = int(np.argmax(step <= 0)) + 1
            problem = "listed twice" if step[at - 1] == 0 else "out of ascending order"
            raise IngestError(f"{where}: {log}_initiator[{at}]: user {users[at]} {problem}")
        bare = users[ptr[users + 1] == ptr[users]]
        if bare.size:
            raise IngestError(f"{where}: negatives_indptr: no negatives for user {bare[0]}, held out in {log}")
    negatives = CSR(num_users, num_items, ptr, ids)
    split = DatasetSplit(logs["train"], logs["validation"], logs["test"], negatives, num_users, num_items)
    return split, _checked_social(where, arrays, num_users), arrays["negatives_sha256"].tobytes().hex()
