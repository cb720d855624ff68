"""Parsing, id remapping, splitting, and negative sampling."""

import dataclasses
import logging
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbrec import data, rawdata
from gbrec.data import IngestError, SocialGraph, load_split_dir, sample_negatives
from gbrec.rawdata import (
    INT64_MAX,
    DatasetStats,
    ingest,
    parse_behavior_file,
    parse_social_file,
    save_split_dir,
    split_leave_one_out,
    write_behaviors,
    write_id_map,
    write_negatives,
    write_social,
)
from gbrec.loss import BehaviorRecord

import helpers
import oracles


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# behavior grammar


def test_parse_behavior_basic(tmp_path):
    path = write(tmp_path, "b.tsv", "7\t3\t9,11\t1\n\n5\t3\t-\t0\n")
    parsed, dropped, deduped = parse_behavior_file(path)
    assert dropped == 0 and deduped == 0
    assert helpers.records_of(parsed) == [
        BehaviorRecord(7, 3, (9, 11), True),
        BehaviorRecord(5, 3, (), False),
    ]


def test_parse_behavior_dedupes_participants_keeping_order(tmp_path):
    path = write(tmp_path, "b.tsv", "1\t2\t5,4,5,4,6\t1\n")
    parsed, dropped, deduped = parse_behavior_file(path)
    assert helpers.records_of(parsed)[0].participants == (5, 4, 6)
    assert deduped == 2


def test_parse_behavior_drops_record_when_initiator_joins_itself(tmp_path):
    path = write(tmp_path, "b.tsv", "1\t2\t1,3\t1\n4\t2\t-\t1\n")
    parsed, dropped, _ = parse_behavior_file(path)
    assert dropped == 1
    assert [r.initiator for r in helpers.records_of(parsed)] == [4]


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("1\t2\t3", "expected 4"),
        ("1\t2\t3\t1\t9", "expected 4"),
        ("x\t2\t-\t1", "not an integer"),
        ("-1\t2\t-\t1", "negative id"),
        ("1\t2\t\t1", "empty participant"),
        ("1\t2\t-\t2", "success flag"),
        ("1\t2\t3,y\t0", "not an integer"),
        ("+5\t2\t-\t1", "not an integer: '\\+5'"),
        (" 5\t2\t-\t1", "not an integer: ' 5'"),
        ("1_0\t2\t-\t1", "not an integer: '1_0'"),
        ("\u0663\t2\t-\t1", "not an integer: '\u0663'"),
        ("1\t2\t-0\t1", "negative id: -0$"),
        # past the digits that int() reads from text
        pytest.param("1" * 5000 + "\t2\t-\t1", "id 1{5000} too large", id="5000-digit-id"),
    ],
)
def test_parse_behavior_rejects_malformed(tmp_path, line, fragment):
    path = write(tmp_path, "b.tsv", line + "\n")
    with pytest.raises(IngestError, match=fragment):
        parse_behavior_file(path)


def test_parse_errors_carry_file_and_line(tmp_path):
    path = write(tmp_path, "b.tsv", "1\t2\t-\t1\nbad line\n")
    with pytest.raises(IngestError, match=r"b\.tsv:2"):
        parse_behavior_file(path)


def test_parse_social(tmp_path):
    path = write(tmp_path, "s.tsv", "1\t2\n\n3\t4\n")
    np.testing.assert_array_equal(parse_social_file(path), [[1, 2], [3, 4]])
    with pytest.raises(IngestError, match="expected 2"):
        parse_social_file(write(tmp_path, "bad.tsv", "1\t2\t3\n"))


# ---------------------------------------------------------------------------
# the bulk parse against the token-by-token oracles

# ids of a small space, so repeats, self-joins and out-of-range ids are common
PLAIN_IDS = st.integers(0, 7).map(str)
# tokens that int() reads and np.fromstring does not, or reads differently,
# or that neither reads
ODD_IDS = st.sampled_from(
    [" 5", "+5", "5 ", "1_0", "٣", "", "-3", "-0", "007", "+ 5", "-", " ", "1.0", "x",
     "99999999999999999999", "-99999999999999999999", "9223372036854775807"]
)
# bytes that are not UTF-8 or not text, each put into a line at a drawn place
ODD_BYTES = st.sampled_from([b"\x90", b"\xff", b"\x00"])


@st.composite
def tsv_files(draw, kind):
    """The bytes of a behavior or social file: plain ids or odd tokens too,
    well-formed lines or bad field counts, flags and participant fields and
    empty lines too, and, with odd bytes, stray non-UTF-8 and NUL bytes,
    ``\\r\\n`` and ``\\r`` line ends and no final line end."""
    odd_ids, odd_lines, odd_bytes = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    ids = st.one_of(PLAIN_IDS, ODD_IDS) if odd_ids else PLAIN_IDS
    lists = st.lists(ids, min_size=1, max_size=5).map(",".join)
    flags = st.sampled_from(["0", "1", "2", "", "01"] if odd_lines else ["0", "1"])
    participants = st.sampled_from(["-", ""] if odd_lines else ["-"]) | lists
    ends = st.sampled_from([b"\n", b"\r\n", b"\r"] if odd_bytes else [b"\n"])
    text = b""
    for _ in range(draw(st.integers(0, 8))):
        if kind == "behaviors":
            fields = [draw(ids), draw(ids), draw(participants), draw(flags)]
        else:
            fields = [draw(ids), draw(ids)]
        if odd_lines and draw(st.integers(0, 4)) == 0:
            fields = draw(st.sampled_from([fields[:-1], fields + ["1"], ["1,2"] + fields[1:], []]))
        line = "\t".join(fields).encode()
        if odd_bytes and draw(st.integers(0, 4)) == 0:
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(ODD_BYTES) + line[at:]
        text += line + draw(ends)
    if odd_bytes and draw(st.booleans()):
        text = text.rstrip(b"\r\n")
    return text


def _write_temp(text: bytes):
    fh = tempfile.NamedTemporaryFile("wb", suffix=".tsv", delete=False)
    with fh:
        fh.write(text)
    return fh.name


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except IngestError as exc:
        return f"IngestError: {exc}"


@settings(max_examples=300, deadline=None)
@given(text=tsv_files("behaviors"))
def test_parse_behavior_file_equals_the_token_parse(text):
    path = _write_temp(text)
    try:
        want_warnings = []
        want = _outcome(oracles.parse_behavior_oracle, path, want_warnings)
        logger = logging.getLogger("gbrec.rawdata")
        handler = _Messages()
        logger.addHandler(handler)
        try:
            got = _outcome(parse_behavior_file, path)
        finally:
            logger.removeHandler(handler)
    finally:
        os.unlink(path)
    if not isinstance(got, str):
        logb, dropped, deduped = got
        got = (
            [dataclasses.astuple(r) for r in helpers.records_of(logb)], logb.num_users, logb.num_items, dropped, deduped
        )
    assert got == want
    assert handler.messages == want_warnings


@settings(max_examples=200, deadline=None)
@given(text=tsv_files("social"))
def test_parse_social_file_equals_the_token_parse(text):
    path = _write_temp(text)
    try:
        want = _outcome(oracles.parse_social_oracle, path)
        got = _outcome(parse_social_file, path)
    finally:
        os.unlink(path)
    if not isinstance(got, str):
        assert got.dtype == np.int64 and got.shape[1] == 2
        got = [tuple(pair) for pair in got.tolist()]
    assert got == want


# ---------------------------------------------------------------------------
# ingest: dense remapping and statistics


def test_ingest_remaps_ids_densely_and_counts(tmp_path):
    behaviors = write(
        tmp_path,
        "b.tsv",
        "100\t50\t200,300\t1\n"  # users {100,200,300}, item 50
        "300\t70\t-\t0\n",
    )
    social = write(
        tmp_path,
        "s.tsv",
        "100\t300\n"  # kept
        "100\t100\n"  # self loop
        "100\t999\n"  # unknown user
        "300\t100\n",  # duplicate of the first after symmetrization
    )
    logb, graph, stats = ingest(behaviors, social)
    # dense ids follow sorted original ids: 100->0, 200->1, 300->2; 50->0, 70->1
    assert logb.num_users == 3 and logb.num_items == 2
    assert helpers.records_of(logb) == [
        BehaviorRecord(0, 0, (1, 2), True),
        BehaviorRecord(2, 1, (), False),
    ]
    np.testing.assert_array_equal(stats.user_ids, [100, 200, 300])
    np.testing.assert_array_equal(stats.item_ids, [50, 70])
    assert stats.num_behaviors == 2
    assert stats.num_success == 1 and stats.num_failed == 1
    assert stats.num_social_edges == 1
    assert stats.dropped_social_edges == 1
    assert stats.dropped_social_self_loops == 1
    np.testing.assert_array_equal(graph.friends(0), [2])
    np.testing.assert_array_equal(graph.friends(2), [0])
    np.testing.assert_array_equal(graph.friends(1), [])


RAW_USERS = st.sampled_from([0, 3, 7, 42, 1000, 2**40, INT64_MAX])


@st.composite
def raw_worlds(draw):
    """Behavior lines over sparse raw ids, and social pairs that may be
    self-loops or name users no record has (99)."""
    lines = []
    for _ in range(draw(st.integers(1, 10))):
        participants = draw(st.lists(RAW_USERS, max_size=4))
        item = draw(st.sampled_from([5, 9, 2**33]))
        lines.append((draw(RAW_USERS), item, participants, draw(st.booleans())))
    pairs = draw(st.lists(st.tuples(RAW_USERS | st.just(99), RAW_USERS), max_size=10))
    return lines, pairs


@settings(max_examples=150, deadline=None)
@given(world=raw_worlds())
def test_ingest_equals_the_record_loop(world):
    lines, pairs = world
    with tempfile.TemporaryDirectory() as tmp:
        behaviors = os.path.join(tmp, "b.tsv")
        social = os.path.join(tmp, "s.tsv")
        with open(behaviors, "w", encoding="utf-8") as fh:
            fh.writelines(f"{u}\t{i}\t{','.join(map(str, ps)) or '-'}\t{int(ok)}\n" for u, i, ps, ok in lines)
        with open(social, "w", encoding="utf-8") as fh:
            fh.writelines(f"{a}\t{b}\n" for a, b in pairs)
        raw, _, _ = parse_behavior_file(behaviors)
        if not len(raw):  # every line dropped
            with pytest.raises(IngestError, match="no usable"):
                ingest(behaviors, social)
            return
        logb, graph, stats = ingest(behaviors, social)
        want = oracles.ingest_oracle(helpers.records_of(raw), parse_social_file(social).tolist())

    assert [dataclasses.astuple(r) for r in helpers.records_of(logb)] == want["records"]
    assert (logb.num_users, logb.num_items) == (len(want["user_ids"]), len(want["item_ids"]))
    assert stats.user_ids.tolist() == want["user_ids"]
    assert stats.item_ids.tolist() == want["item_ids"]
    assert (stats.num_behaviors, stats.num_success) == (len(want["records"]), want["num_success"])
    for key in ("num_social_edges", "dropped_social_self_loops", "dropped_social_edges"):
        assert getattr(stats, key) == want[key], key
    expected = SocialGraph.from_edges(logb.num_users, np.array(want["pairs"], dtype=np.int64).reshape(-1, 2))
    np.testing.assert_array_equal(graph.indptr, expected.indptr)
    np.testing.assert_array_equal(graph.indices, expected.indices)


def test_ingest_without_social_file(tmp_path):
    behaviors = write(tmp_path, "b.tsv", "1\t1\t-\t1\n")
    logb, graph, stats = ingest(behaviors, None)
    assert graph.num_edges == 0
    assert stats.num_social_edges == 0


def test_ingest_empty_file_is_an_error(tmp_path):
    with pytest.raises(IngestError, match="no usable"):
        ingest(write(tmp_path, "b.tsv", "\n"), None)


def test_behavior_round_trip(tmp_path, rng):
    records = helpers.make_records(rng, 12, 9, 30)
    path = str(tmp_path / "b.tsv")
    write_behaviors(path, helpers.from_records(records, 12, 9))
    parsed, dropped, deduped = parse_behavior_file(path)
    assert helpers.records_of(parsed) == records and dropped == 0 and deduped == 0


@st.composite
def written_logs(draw):
    """Records whose participants may repeat or hold the initiator, with their id space."""
    num_users = draw(st.integers(1, 6))
    num_items = draw(st.integers(1, 5))
    records = []
    for _ in range(draw(st.integers(0, 12))):
        participants = draw(st.lists(st.integers(0, num_users - 1), max_size=4))
        records.append(
            BehaviorRecord(
                draw(st.integers(0, num_users - 1)), draw(st.integers(0, num_items - 1)),
                tuple(participants), draw(st.booleans()),
            )
        )
    return records, num_users, num_items


@settings(max_examples=200, deadline=None)
@given(case=written_logs())
def test_write_then_parse_keeps_what_the_parser_accepts(case):
    records, num_users, num_items = case
    want, dropped, deduped = [], 0, 0
    for r in records:
        parts = []
        for p in r.participants:
            if p in parts:
                deduped += 1
            else:
                parts.append(p)
        if r.initiator in parts:
            dropped += 1
        else:
            want.append(BehaviorRecord(r.initiator, r.item, tuple(parts), r.success))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.tsv")
        write_behaviors(path, helpers.from_records(records, num_users, num_items))
        parsed, got_dropped, got_deduped = parse_behavior_file(path)
    assert helpers.records_of(parsed) == want
    assert (got_dropped, got_deduped) == (dropped, deduped)
    # the ids read span the log
    users = [u for r in want for u in (r.initiator, *r.participants)]
    items = [r.item for r in want]
    assert (parsed.num_users, parsed.num_items) == (max(users, default=-1) + 1, max(items, default=-1) + 1)


def test_social_round_trip(tmp_path, rng):
    graph = helpers.make_social(rng, 15, 25)
    path = str(tmp_path / "s.tsv")
    write_social(path, graph)
    rebuilt = SocialGraph.from_edges(15, parse_social_file(path))
    np.testing.assert_array_equal(rebuilt.indptr, graph.indptr)
    np.testing.assert_array_equal(rebuilt.indices, graph.indices)


DIGIT_EDGES = [0, 1, 9, 10, 99, 100, 999, 1000]


@st.composite
def written_files(draw):
    """The contents of every split file, with ids at digit boundaries and
    original ids anywhere in int64, and a writer chunk size."""
    num_items = draw(st.sampled_from([1, 2, 10, 11, 100, 101, 1000, 1001]))
    num_users = draw(st.sampled_from([1, 2, 10, 11, 100, 101, 1000, 1001]))

    def ids(n):
        return st.one_of(st.sampled_from([i for i in DIGIT_EDGES if i < n]), st.integers(0, n - 1))

    records = draw(
        st.lists(
            st.tuples(ids(num_users), ids(num_items), st.lists(ids(num_users), max_size=4).map(tuple), st.booleans()),
            max_size=12,
        )
    )
    pairs = draw(st.lists(st.tuples(ids(num_users), ids(num_users)), max_size=12))
    negatives = draw(
        st.dictionaries(
            ids(num_users), st.lists(ids(num_items), min_size=1, max_size=6, unique=True).map(sorted), max_size=6
        )
    )
    original = draw(st.lists(st.integers(0, INT64_MAX), max_size=8, unique=True).map(sorted))
    chunk = draw(st.sampled_from([1, 2, 5, rawdata.WRITE_CHUNK_TOKENS]))
    return records, num_users, num_items, pairs, negatives, original, chunk


@settings(max_examples=200, deadline=None)
@given(case=written_files())
def test_writers_equal_the_line_by_line_writers(case):
    records, num_users, num_items, pairs, negatives, original, chunk = case
    logb = helpers.from_records([BehaviorRecord(*r) for r in records], num_users, num_items)
    social = SocialGraph.from_edges(num_users, np.array(pairs, dtype=np.int64))
    negatives_csr = helpers.negatives_csr(negatives, num_users, num_items)
    original = np.array(original, dtype=np.int64)
    writers = [
        (lambda p: write_behaviors(p, logb), lambda p: oracles.write_behaviors_oracle(p, records)),
        (lambda p: write_social(p, social), lambda p: oracles.write_pairs_oracle(p, social.undirected_pairs().tolist())),
        (
            lambda p: write_negatives(p, negatives_csr),
            lambda p: oracles.write_negatives_oracle(p, negatives),
        ),
        (lambda p: write_id_map(p, original), lambda p: oracles.write_pairs_oracle(p, enumerate(original.tolist()))),
    ]
    saved = rawdata.WRITE_CHUNK_TOKENS
    rawdata.WRITE_CHUNK_TOKENS = chunk
    try:
        with tempfile.TemporaryDirectory() as tmp:
            got, want = os.path.join(tmp, "got"), os.path.join(tmp, "want")
            for write_file, write_oracle in writers:
                write_file(got)
                write_oracle(want)
                with open(got, "rb") as a, open(want, "rb") as b:
                    assert a.read() == b.read()
    finally:
        rawdata.WRITE_CHUNK_TOKENS = saved


# ---------------------------------------------------------------------------
# social graph container


def test_social_graph_symmetrizes_and_dedupes():
    pairs = np.array([[0, 1], [1, 0], [2, 2], [1, 3]])
    g = SocialGraph.from_edges(4, pairs)
    np.testing.assert_array_equal(g.friends(0), [1])
    np.testing.assert_array_equal(g.friends(1), [0, 3])
    np.testing.assert_array_equal(g.friends(2), [])
    assert g.num_edges == 2
    np.testing.assert_array_equal(g.degrees, [1, 2, 0, 1])
    np.testing.assert_array_equal(g.undirected_pairs(), [[0, 1], [1, 3]])
    with pytest.raises(IndexError):
        g.friends(4)


def test_user_interactions_covers_both_roles():
    log = helpers.from_records(
        [BehaviorRecord(0, 5, (1,), True), BehaviorRecord(1, 2, (0,), False)], 3, 6
    )
    touched = helpers.touched_sets(log)
    assert touched[0] == {5, 2}
    assert touched[1] == {5, 2}
    assert touched[2] == set()


# ---------------------------------------------------------------------------
# leave-one-out split


def build_log_with_counts(counts, num_items=30):
    """User u initiates counts[u] records, each on a distinct item."""
    records = []
    item = 0
    for u, c in enumerate(counts):
        for _ in range(c):
            records.append(BehaviorRecord(u, item % num_items, (), True))
            item += 1
    return helpers.from_records(records, len(counts), num_items)


def test_split_thresholds_by_initiator_count():
    log = build_log_with_counts([1, 2, 3, 5])
    split = split_leave_one_out(log, seed=0)
    test, validation = helpers.held_out(split.test), helpers.held_out(split.validation)
    assert 0 not in test and 0 not in validation  # one record: train only
    assert 1 in test and 1 not in validation
    assert 2 in test and 2 in validation
    assert 3 in test and 3 in validation
    # every user keeps at least one training record
    train_initiators = {r.initiator for r in helpers.records_of(split.train)}
    assert train_initiators == {0, 1, 2, 3}


def test_split_held_out_records_leave_training(rng):
    records = helpers.make_records(rng, 10, 12, 80)
    log = helpers.from_records(records, 10, 12)
    split = split_leave_one_out(log, seed=3)
    assert len(split.train) + len(split.test) + len(split.validation) == len(records)
    train_pairs = [(r.initiator, r.item, r.participants, r.success) for r in helpers.records_of(split.train)]
    for u, rec in list(helpers.held_out(split.test).items()) + list(helpers.held_out(split.validation).items()):
        assert rec.initiator == u
        key = (rec.initiator, rec.item, rec.participants, rec.success)
        # the held-out record occupies no training slot (multiset accounting)
        assert train_pairs.count(key) < [
            (r.initiator, r.item, r.participants, r.success) for r in records
        ].count(key)


def test_split_negatives_are_untouched_sorted_and_capped(rng):
    records = helpers.make_records(rng, 8, 10, 60)
    log = helpers.from_records(records, 8, 10)
    split = split_leave_one_out(log, seed=1, num_negatives=4)
    touched = helpers.touched_sets(log)
    for u in helpers.held_out(split.test):
        negs = split.eval_negatives.neighbors(u)
        complement = sorted(set(range(10)) - touched[u])
        assert len(negs) == min(4, len(complement))
        assert set(negs) <= set(complement)
        assert list(negs) == sorted(negs)
        assert len(set(negs.tolist())) == len(negs)


def test_split_negatives_cap_at_full_complement():
    # user 0 touches items 0..3 of 6; only 2 candidates exist, fewer than requested
    records = [BehaviorRecord(0, i, (), True) for i in range(4)]
    log = helpers.from_records(records, 1, 6)
    split = split_leave_one_out(log, seed=0, num_negatives=999)
    np.testing.assert_array_equal(split.eval_negatives.neighbors(0), [4, 5])


def test_split_deterministic_by_seed(rng):
    records = helpers.make_records(rng, 10, 12, 70)
    log = helpers.from_records(records, 10, 12)
    a = split_leave_one_out(log, seed=5)
    b = split_leave_one_out(log, seed=5)
    assert {u: r.item for u, r in helpers.held_out(a.test).items()} == {
        u: r.item for u, r in helpers.held_out(b.test).items()
    }
    np.testing.assert_array_equal(a.eval_negatives.indptr, b.eval_negatives.indptr)
    np.testing.assert_array_equal(a.eval_negatives.indices, b.eval_negatives.indices)


@st.composite
def split_worlds(draw):
    num_users = draw(st.integers(1, 6))
    num_items = draw(st.integers(1, 8))
    records = []
    for _ in range(draw(st.integers(0, 30))):
        initiator = draw(st.integers(0, num_users - 1))
        others = [u for u in range(num_users) if u != initiator]
        participants = draw(st.lists(st.sampled_from(others), unique=True, max_size=3)) if others else []
        item = draw(st.integers(0, num_items - 1))
        records.append(BehaviorRecord(initiator, item, tuple(participants), draw(st.booleans())))
    return records, num_users, num_items, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 9))


@settings(max_examples=200, deadline=None)
@given(world=split_worlds())
def test_split_equals_the_record_loop(world):
    records, num_users, num_items, seed, num_negatives = world
    split = split_leave_one_out(helpers.from_records(records, num_users, num_items), seed, num_negatives)
    train, validation, test, negatives = oracles.split_oracle(records, num_items, seed, num_negatives)
    assert helpers.records_of(split.train) == train
    assert helpers.records_of(split.validation) == [validation[u] for u in sorted(validation)]
    assert helpers.records_of(split.test) == [test[u] for u in sorted(test)]
    got = helpers.negative_lists(split.eval_negatives)
    assert sorted(got) == sorted(negatives)
    for u, want in negatives.items():
        assert got[u].dtype == data.item_dtype(num_items)
        np.testing.assert_array_equal(got[u], want)
    assert (split.eval_negatives.num_rows, split.eval_negatives.num_cols) == (num_users, num_items)
    assert (split.num_users, split.num_items) == (num_users, num_items)


def split_parts(split):
    """A split's held-out records and negatives, comparable with ``==``."""
    return (
        helpers.records_of(split.train), helpers.records_of(split.validation), helpers.records_of(split.test),
        {u: ids.tolist() for u, ids in helpers.negative_lists(split.eval_negatives).items()},
    )


@pytest.mark.parametrize("cells", [1, 7 * 30, 1 << 30])
def test_split_is_the_same_for_any_block_size(monkeypatch, cells):
    # one row, seven rows and every row per key block draw the same stream
    records = helpers.make_records(np.random.default_rng(8), 40, 30, 400)
    log = helpers.from_records(records, 40, 30)
    want = split_parts(split_leave_one_out(log, seed=6, num_negatives=12))
    monkeypatch.setattr(rawdata, "SPLIT_BLOCK_CELLS", cells)
    assert split_parts(split_leave_one_out(log, seed=6, num_negatives=12)) == want


def test_split_negatives_are_uniform_over_the_untouched_items():
    # each of 20 users touched items 0 and 1 of 6, so its two negatives are
    # one of the 6 pairs of {2, 3, 4, 5}; 300 seeds give 6,000 draws, 1,000
    # expected per pair. Each count is binomial (n = 6,000, p = 1/6, sd 28.9)
    # and must fall within 4 sd of 1,000: a fair draw misses with odds under
    # 4e-4 for the 6 counts together, and with fixed seeds a pass is
    # deterministic.
    records = [BehaviorRecord(u, i, (), True) for u in range(20) for i in (0, 1)]
    log = helpers.from_records(records, 20, 6)
    counts = np.zeros((6, 6), dtype=np.int64)
    for seed in range(300):
        split = split_leave_one_out(log, seed=seed, num_negatives=2)
        for negs in helpers.negative_lists(split.eval_negatives).values():
            counts[negs[0], negs[1]] += 1
    pairs = counts[np.triu_indices(6, 1)]
    assert counts.sum() == 6000 and counts[:2].sum() == 0
    assert np.abs(pairs[pairs > 0] - 1000).max() <= 4 * np.sqrt(6000 / 6 * 5 / 6)
    assert np.count_nonzero(pairs) == 6


class TiedKeys:
    """A generator whose ``random`` keys take only the values 0 and 0.5."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def integers(self, high):
        return self.rng.integers(high)

    def random(self, shape):
        return np.floor(self.rng.random(shape) * 2) / 2


@pytest.mark.parametrize("num_negatives", [1, 3, 5, 8, 40])
def test_split_rows_hold_min_k_untouched_when_keys_tie(monkeypatch, num_negatives):
    # users touch 0 to 7 of 8 items; with tied keys every row still holds
    # exactly min(k, untouched) distinct untouched items, sorted
    records = [BehaviorRecord(u, i, (), True) for u in range(8) for i in range(max(u, 2))]
    log = helpers.from_records(records, 8, 8)
    monkeypatch.setattr(rawdata.np.random, "default_rng", TiedKeys)
    split = split_leave_one_out(log, seed=0, num_negatives=num_negatives)
    touched = helpers.touched_sets(log)
    assert sorted(helpers.negative_lists(split.eval_negatives)) == list(range(8))
    for u, negs in helpers.negative_lists(split.eval_negatives).items():
        untouched = set(range(8)) - touched[u]
        assert negs.tolist() == sorted(set(negs.tolist()))
        assert set(negs.tolist()) <= untouched and len(negs) == min(num_negatives, len(untouched))


def test_split_warns_once_per_user_who_touched_every_item(caplog):
    records = [BehaviorRecord(0, i, (), True) for i in range(3)] + [BehaviorRecord(1, 0, (), True)] * 2
    with caplog.at_level(logging.WARNING, logger="gbrec.rawdata"):
        split = split_leave_one_out(helpers.from_records(records, 2, 3), seed=0)
    assert [r.getMessage() for r in caplog.records] == ["user 0 interacted with every item; excluded from evaluation"]
    assert sorted(helpers.negative_lists(split.eval_negatives)) == [1]
    assert helpers.records_of(split.test)[0].initiator == 1


def test_split_rejects_fewer_than_one_negative():
    with pytest.raises(ValueError, match="num_negatives must be >= 1"):
        split_leave_one_out(build_log_with_counts([2]), seed=0, num_negatives=0)


# ---------------------------------------------------------------------------
# training-time negative sampling


def test_sample_negatives_avoid_touched_items(rng):
    records = helpers.make_records(rng, 6, 9, 40)
    log = helpers.from_records(records, 6, 9)
    touched = helpers.touched_sets(log)
    negs = sample_negatives(log, k=2, rng=np.random.default_rng(2))
    assert negs.shape == (len(records), 2)
    for rec, row in zip(records, negs):
        # draws avoid the user's touched items whenever at least k untouched
        # items exist; below that the only guarantee is avoiding the positive
        enough_free = 9 - len(touched[rec.initiator]) >= 2
        for n in row:
            if enough_free:
                assert n not in touched[rec.initiator]
            assert n != rec.item


def test_sample_negatives_distinct_within_row():
    # plenty of untouched items: draws within a row must not repeat
    records = [BehaviorRecord(0, 0, (), True)]
    log = helpers.from_records(records, 1, 50)
    negs = sample_negatives(log, k=10, rng=np.random.default_rng(0))
    assert len(set(negs[0].tolist())) == 10


def test_sample_negatives_when_user_touched_everything():
    records = [BehaviorRecord(0, i, (), True) for i in range(3)]
    log = helpers.from_records(records, 1, 3)
    negs = sample_negatives(log, k=2, rng=np.random.default_rng(0))
    for rec, row in zip(records, negs):
        assert all(n != rec.item for n in row)


@st.composite
def sampler_worlds(draw):
    num_users = draw(st.integers(1, 5))
    num_items = draw(st.integers(1, 30))
    records = []
    for _ in range(draw(st.integers(0, 40))):
        initiator = draw(st.integers(0, num_users - 1))
        others = [u for u in range(num_users) if u != initiator]
        participants = draw(st.lists(st.sampled_from(others), unique=True, max_size=2)) if others else []
        records.append(BehaviorRecord(initiator, draw(st.integers(0, num_items - 1)), tuple(participants), True))
    return helpers.from_records(records, num_users, num_items), draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


def assert_sampler_contract(log, k, negs):
    """Rows whose initiator left at least k items untouched hold k distinct
    untouched items; other rows avoid only the positive."""
    assert negs.shape == (len(log), k) and negs.dtype == np.int64
    touched = helpers.touched_sets(log)
    for u, item, row in zip(log.initiator.tolist(), log.item.tolist(), negs.tolist()):
        assert all(0 <= n < log.num_items for n in row)
        if log.num_items - len(touched[u]) >= k:
            assert len(set(row)) == k and not touched[u] & set(row)
        else:
            assert item not in row if log.num_items > 1 else row == [0] * k


@settings(max_examples=200, deadline=None)
@given(world=sampler_worlds())
def test_sample_negatives_keep_the_contract(world):
    log, k, seed = world
    assert_sampler_contract(log, k, sample_negatives(log, k, np.random.default_rng(seed)))


@settings(max_examples=50, deadline=None)
@given(world=sampler_worlds())
def test_sample_negatives_same_seed_same_draws(world):
    log, k, seed = world
    first = sample_negatives(log, k, np.random.default_rng(seed))
    np.testing.assert_array_equal(sample_negatives(log, k, np.random.default_rng(seed)), first)


@pytest.mark.parametrize("rounds", [0, data.REDRAW_ROUNDS])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_sample_negatives_take_the_complement_when_rejection_mostly_fails(monkeypatch, k, rounds):
    # user 0 leaves exactly k of 200 items untouched, so most of its rows run out
    # of redraw rounds (every row that needs one, with 0 rounds) and take the
    # complement, which is exactly those k items
    monkeypatch.setattr(data, "REDRAW_ROUNDS", rounds)
    records = [BehaviorRecord(0, i, (), True) for i in range(200 - k)]
    records += [BehaviorRecord(1, i, (0,), True) for i in range(0, 200 - k, 40)]
    log = helpers.from_records(records, 2, 200)
    negs = sample_negatives(log, k, np.random.default_rng(k))
    assert_sampler_contract(log, k, negs)
    free = set(range(200 - k, 200))
    assert all(set(row) == free for row in negs[log.initiator == 0].tolist())


@pytest.mark.parametrize("k", [1, 3])
def test_sample_negatives_avoid_the_positive_in_an_exhausted_universe(k):
    # user 0 touched every item; user 1 has fewer than k untouched items when k is 3
    records = [BehaviorRecord(0, i, (), True) for i in range(6)] + [BehaviorRecord(1, i, (), True) for i in range(4)]
    log = helpers.from_records(records * 50, 2, 6)
    negs = sample_negatives(log, k, np.random.default_rng(11))
    assert_sampler_contract(log, k, negs)
    # the shifted draw reaches every other item
    assert set(negs[(log.initiator == 0) & (log.item == 2)].ravel().tolist()) == {0, 1, 3, 4, 5}
    one_item = helpers.from_records([BehaviorRecord(0, 0, (), True)] * 3, 1, 1)
    assert_sampler_contract(one_item, k, sample_negatives(one_item, k, np.random.default_rng(11)))


def test_sample_negatives_are_uniform_over_ordered_free_pairs():
    # user 0 touched items 0 and 1 of 6, so each row is one of the 12 ordered
    # pairs of distinct items from {2, 3, 4, 5}; 12,000 rows expect 1,000 each.
    # The chi-square statistic (11 degrees of freedom) must stay below 31.26,
    # its 0.999 quantile; with this fixed seed a pass is deterministic.
    log = helpers.from_records([BehaviorRecord(0, i % 2, (), True) for i in range(12_000)], 1, 6)
    negs = sample_negatives(log, 2, np.random.default_rng(5))
    assert_sampler_contract(log, 2, negs)
    counts = np.bincount((negs[:, 0] - 2) * 4 + (negs[:, 1] - 2), minlength=16)
    cells = counts[[a * 4 + b for a in range(4) for b in range(4) if a != b]]
    assert cells.sum() == 12_000
    assert ((cells - 1000.0) ** 2 / 1000.0).sum() < 31.26


# ---------------------------------------------------------------------------
# split directory round trip


def test_split_dir_round_trip(tmp_path, rng):
    records = helpers.make_records(rng, 10, 12, 70)
    log = helpers.from_records(records, 10, 12)
    social = helpers.make_social(rng, 10, 16)
    split = split_leave_one_out(log, seed=4)
    stats = DatasetStats(
        num_users=10,
        num_items=12,
        num_behaviors=len(records),
        num_success=sum(r.success for r in records),
        num_failed=sum(not r.success for r in records),
        num_social_edges=social.num_edges,
    )

    outdir = str(tmp_path / "split")
    save_split_dir(outdir, split, social, stats, seed=4)
    loaded, social2, stats2 = load_split_dir(outdir)

    assert loaded.num_users == split.num_users and loaded.num_items == split.num_items
    assert helpers.records_of(loaded.train) == helpers.records_of(split.train)
    assert helpers.held_out(loaded.test) == helpers.held_out(split.test)
    assert helpers.held_out(loaded.validation) == helpers.held_out(split.validation)
    np.testing.assert_array_equal(loaded.eval_negatives.indptr, split.eval_negatives.indptr)
    np.testing.assert_array_equal(loaded.eval_negatives.indices, split.eval_negatives.indices)
    np.testing.assert_array_equal(social2.indptr, social.indptr)
    np.testing.assert_array_equal(social2.indices, social.indices)
    assert stats2["num_behaviors"] == stats.num_behaviors


@pytest.mark.parametrize(
    "num_items, dtype",
    [(0, np.uint8), (1, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)],
)
def test_item_dtype_holds_every_item_id(num_items, dtype):
    assert data.item_dtype(num_items) == np.dtype(dtype)


@pytest.mark.parametrize("num_items, dtype", [(12, np.uint8), (300, np.uint16), (70_000, np.uint32)])
def test_split_dir_keeps_the_negatives_narrow(tmp_path, rng, num_items, dtype):
    log = helpers.from_records(helpers.make_records(rng, 10, num_items, 60), 10, num_items)
    split = split_leave_one_out(log, seed=2)
    assert split.eval_negatives.indices.dtype == dtype
    social = helpers.make_social(rng, 10, 8)
    save_split_dir(str(tmp_path), split, social, DatasetStats(10, num_items, 60, 0, 0, social.num_edges), seed=2)
    with np.load(tmp_path / "split.npz") as npz:
        assert npz["negatives_indices"].dtype == dtype
    loaded, _, _ = load_split_dir(str(tmp_path))
    assert loaded.eval_negatives.indices.dtype == dtype
    np.testing.assert_array_equal(loaded.eval_negatives.indices, split.eval_negatives.indices)
    assert loaded.eval_negatives.indices.size == split.eval_negatives.indices.size > 0
