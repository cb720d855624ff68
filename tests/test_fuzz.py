"""Truncated and bit-flipped checkpoints, ``split.npz`` and ``stats.json``
files, and damaged raw files and config files.

Whatever byte a file is cut at and whichever single bit is flipped, the
loaders raise only their own error (``CheckpointError``, ``IngestError``) or
load, and ``gbrec evaluate`` either completes or exits 1 or 2 with one line
on standard error and nothing on standard output. Checkpoints and
``split.npz`` are the same ``.npz`` container: a cut one never loads, and one
that loads after a flip holds exactly the arrays it held before, since each
member's CRC-32 covers its header and data. ``stats.json`` is a report that
no loader reads: however it is damaged, the split dir loads as before.

A ``behaviors.tsv`` or ``social.tsv`` cut at any byte, with any bit flipped
or with any byte replaced, is prepared, or is one error line naming that
file, with exit code 1. A config file damaged the same way trains, or is one
``ConfigError`` whose every problem names that file, with exit code 2.
"""

import io
import os
import re
import shutil
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gbrec.checkpoint import load_checkpoint, save_checkpoint
from gbrec.cli import main
from gbrec.config import CheckpointError, Hyperparams
from gbrec.data import IngestError, load_split_dir, load_train_dir
from gbrec.model import init_params
from gbrec.scoring import init_flat_params

SYNTH_ARGS = ["--num-users", "30", "--num-items", "12", "--num-records", "200", "--latent-dim", "4",
              "--mean-friends", "4.0"]
TRAIN_ARGS = ["--dim", "4", "--pretrain-epochs", "1", "--epochs", "1", "--batch-size", "64"]

# every example reuses the test's one tmp_path and resets capsys
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A split dir, a trained gbmf checkpoint and a gbgcn one, their bytes and what they load."""
    root = tmp_path_factory.mktemp("fuzz")
    raw, data = str(root / "raw"), str(root / "data")
    assert main(["synth", "--outdir", raw, "--seed", "1", *SYNTH_ARGS]) == 0
    behaviors, social = os.path.join(raw, "behaviors.tsv"), os.path.join(raw, "social.tsv")
    assert main(["prepare", behaviors, social, "--outdir", data, "--seed", "3", "--negatives", "8"]) == 0
    assert main(["train", "--data", data, "--outdir", str(root / "gbmf"), "--model", "gbmf", *TRAIN_ARGS]) == 0
    split, _, _ = load_split_dir(data)
    hp = Hyperparams(dim=4, num_layers=1)
    gbgcn = str(root / "gbgcn.bin")
    save_checkpoint(gbgcn, "gbgcn", init_params(split.num_users, split.num_items, hp, seed=0), hp)
    blobs, models = {}, {}
    for name, path in (("gbmf", str(root / "gbmf" / "checkpoint.bin")), ("gbgcn", gbgcn)):
        with open(path, "rb") as fh:
            blobs[name] = fh.read()
        models[name] = load_checkpoint(path)
    with open(os.path.join(data, "split.npz"), "rb") as fh:
        npz = fh.read()
    with open(os.path.join(data, "stats.json"), "rb") as fh:
        stats = fh.read()
    raw_files = {}
    for path in (behaviors, social):
        with open(path, "rb") as fh:
            raw_files[os.path.basename(path)] = fh.read()
    return {
        "data": data, "checkpoints": blobs, "models": models, "npz": npz, "stats": stats, "split": split_arrays(data),
        "raw": raw_files,
    }


def flip(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def evaluate(capsys, checkpoint: str, data: str) -> int:
    """Run ``gbrec evaluate``; a failure must be one line on stderr and nothing on stdout."""
    capsys.readouterr()
    code = main(["evaluate", "--checkpoint", checkpoint, "--data", data])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: "), err
    return code


# where a cut or a flip lands in a checkpoint or split.npz: the whole file;
# the zip's central directory and end record; or the start of one member
# (any of split.npz's 20), its local header and .npy header (30 bytes, its
# name, 128 bytes); two thirds of the draws land where the parsing is
NPZ_REGIONS = ("anywhere", "directory", "member")


@st.composite
def npz_cuts(draw):
    """A region, a member and a fraction of that region."""
    region = draw(st.sampled_from(NPZ_REGIONS))
    return region, draw(st.integers(0, 19)), draw(st.floats(0.0, 1.0, exclude_max=True))


def npz_position(blob: bytes, case, unit: int) -> int:
    """The byte (``unit`` 1) or bit (``unit`` 8) at ``case`` (see ``npz_cuts``)."""
    region, member, fraction = case
    if region == "anywhere":
        lo, hi = 0, len(blob)
    elif region == "directory":
        lo, hi = struct.unpack_from("<I", blob, len(blob) - 6)[0], len(blob)
    else:
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            infos = zf.infolist()
        lo = infos[member % len(infos)].header_offset
        hi = min(lo + 200, len(blob))
    return lo * unit + int(fraction * (hi - lo) * unit)


@st.composite
def checkpoint_cuts(draw):
    """A model, and where in its checkpoint (see ``npz_cuts``)."""
    return draw(st.sampled_from(["gbmf", "gbgcn"])), draw(npz_cuts())


@FUZZ
@given(case=checkpoint_cuts())
@example(case=("gbmf", ("anywhere", 0, 0.0)))
@example(case=("gbgcn", ("anywhere", 0, 0.9999)))
def test_a_truncated_checkpoint_fails_with_one_checkpoint_error(world, tmp_path, capsys, case):
    model, where = case
    blob = world["checkpoints"][model]
    path = str(tmp_path / "cut.bin")
    with open(path, "wb") as fh:
        fh.write(blob[: npz_position(blob, where, 1)])
    with pytest.raises(CheckpointError, match=f"^{re.escape(path)}: .*gbrec train$"):
        load_checkpoint(path)
    assert evaluate(capsys, path, world["data"]) == 1


@FUZZ
@given(case=checkpoint_cuts())
@example(case=("gbmf", ("member", 0, 0.5)))  # the meta member's .npy header
@example(case=("gbgcn", ("directory", 3, 0.5)))
def test_a_bit_flipped_checkpoint_loads_or_fails_with_one_checkpoint_error(world, tmp_path, capsys, case):
    model, where = case
    blob = world["checkpoints"][model]
    path = str(tmp_path / "flipped.bin")
    with open(path, "wb") as fh:
        fh.write(flip(blob, npz_position(blob, where, 8)))
    try:
        got = load_checkpoint(path)
    except CheckpointError:
        assert evaluate(capsys, path, world["data"]) == 1
    else:
        want = world["models"][model]
        assert (got.model_type, got.hp) == (want.model_type, want.hp)
        for name in vars(want.params):
            got_t, want_t = getattr(got.params, name), getattr(want.params, name)
            assert got_t.dtype == want_t.dtype and got_t.tobytes() == want_t.tobytes()
        assert evaluate(capsys, path, world["data"]) == 0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_tensor_fails_with_one_checkpoint_error(world, tmp_path, capsys, value):
    split, _, _ = load_split_dir(world["data"])
    params = init_flat_params(split.num_users, split.num_items, 4, seed=0)
    params.item_emb[3, 1] = value
    path = str(tmp_path / "non-finite.bin")
    save_checkpoint(path, "gbmf", params, Hyperparams(dim=4))
    with pytest.raises(CheckpointError, match="item_emb holds a non-finite value"):
        load_checkpoint(path)
    assert evaluate(capsys, path, world["data"]) == 1


def gbmf_checkpoint(world, tmp_path) -> str:
    path = str(tmp_path / "gbmf.bin")
    if not os.path.exists(path):
        with open(path, "wb") as fh:
            fh.write(world["checkpoints"]["gbmf"])
    return path


# ---------------------------------------------------------------------------
# split.npz


def log_arrays(logb) -> list[np.ndarray]:
    return [logb.initiator, logb.item, logb.success, logb.part_indptr, logb.part_indices]


def split_arrays(data: str) -> list[np.ndarray]:
    """Every array ``load_split_dir`` and ``load_train_dir`` return, and the
    stored digest's bytes, in a fixed order."""
    split, social, digest = load_split_dir(data)
    train, train_social = load_train_dir(data)
    out = [*log_arrays(split.train), *log_arrays(split.validation), *log_arrays(split.test)]
    out += [split.eval_negatives.indptr, split.eval_negatives.indices, social.indptr, social.indices]
    out += [np.frombuffer(bytes.fromhex(digest), np.uint8), np.array([split.num_users, split.num_items])]
    return out + [*log_arrays(train), train_social.indptr, train_social.indices]


def with_npz(world, tmp_path, blob: bytes) -> str:
    data = str(tmp_path / "data")
    if not os.path.isdir(data):
        shutil.copytree(world["data"], data)
    with open(os.path.join(data, "split.npz"), "wb") as fh:
        fh.write(blob)
    return data


def loads_as_before(world, data: str) -> bool:
    """Whether both loaders read the split dir, which must then hold the
    arrays it held before; any failure must be one IngestError."""
    try:
        arrays = split_arrays(data)
    except IngestError:
        return False
    assert len(arrays) == len(world["split"])
    for got, want in zip(arrays, world["split"]):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    return True


@FUZZ
@given(case=npz_cuts())
@example(case=("anywhere", 0, 0.0))
@example(case=("directory", 0, 0.9999))
def test_a_truncated_split_npz_fails_with_one_ingest_error(world, tmp_path, capsys, case):
    blob = world["npz"]
    path = with_npz(world, tmp_path, blob[: npz_position(blob, case, 1)])
    assert not loads_as_before(world, path)  # the zip's end record is gone
    assert evaluate(capsys, gbmf_checkpoint(world, tmp_path), path) == 1


@FUZZ
@given(case=npz_cuts())
def test_a_bit_flipped_split_npz_loads_as_before_or_fails_with_one_ingest_error(world, tmp_path, capsys, case):
    blob = world["npz"]
    path = with_npz(world, tmp_path, flip(blob, npz_position(blob, case, 8)))
    loaded = loads_as_before(world, path)
    assert evaluate(capsys, gbmf_checkpoint(world, tmp_path), path) == (0 if loaded else 1)


# ---------------------------------------------------------------------------
# stats.json


def with_stats(world, tmp_path, stats: bytes) -> str:
    data = str(tmp_path / "data")
    if not os.path.isdir(data):
        shutil.copytree(world["data"], data)
    with open(os.path.join(data, "stats.json"), "wb") as fh:
        fh.write(stats)
    return data


@FUZZ
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
@example(cut=0.0)
def test_a_truncated_stats_file_loads_or_fails_with_one_ingest_error(world, tmp_path, capsys, cut):
    stats = world["stats"]
    data = with_stats(world, tmp_path, stats[: int(cut * len(stats))])
    assert loads_as_before(world, data)
    assert evaluate(capsys, gbmf_checkpoint(world, tmp_path), data) == 0


@FUZZ
@given(bit=st.floats(0.0, 1.0, exclude_max=True))
def test_a_bit_flipped_stats_file_loads_or_fails_with_one_ingest_error(world, tmp_path, capsys, bit):
    stats = world["stats"]
    data = with_stats(world, tmp_path, flip(stats, int(bit * 8 * len(stats))))
    assert loads_as_before(world, data)
    assert evaluate(capsys, gbmf_checkpoint(world, tmp_path), data) == 0


# ---------------------------------------------------------------------------
# raw files and config files


@st.composite
def damages(draw):
    """How a file is damaged (``cut``, ``flip`` or ``replace``), where, as a
    fraction of its length, and with which bit or byte."""
    how = draw(st.sampled_from(["cut", "flip", "replace"]))
    return how, draw(st.floats(0.0, 1.0, exclude_max=True)), draw(st.integers(0, 255))


def damage(blob: bytes, case) -> bytes:
    how, fraction, value = case
    at = int(fraction * len(blob))
    if how == "cut":
        return blob[:at]
    if how == "flip":
        return flip(blob, 8 * at + value % 8)
    return blob[:at] + bytes([value]) + blob[at + 1 :]


@FUZZ
@given(name=st.sampled_from(["behaviors.tsv", "social.tsv"]), case=damages())
@example(name="behaviors.tsv", case=("replace", 0.5, 0x90))
@example(name="social.tsv", case=("flip", 0.5, 7))
@example(name="behaviors.tsv", case=("cut", 0.5, 0))
def test_a_damaged_raw_file_prepares_or_fails_with_one_located_error(world, tmp_path, capsys, name, case):
    paths = {}
    for raw_name, blob in world["raw"].items():
        paths[raw_name] = str(tmp_path / raw_name)
        with open(paths[raw_name], "wb") as fh:
            fh.write(damage(blob, case) if raw_name == name else blob)
    capsys.readouterr()
    code = main(
        ["prepare", paths["behaviors.tsv"], paths["social.tsv"], "--outdir", str(tmp_path / "data"),
         "--seed", "3", "--negatives", "8"]
    )
    out, err = capsys.readouterr()
    assert code in (0, 1)
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {paths[name]}:"), err


# every key is also a flag of TRAIN_ARGS, which overrides it: the run stays
# small whatever the damage leaves, and only the file's own problems remain
CONFIG = b"# the flags override every key\ndim = 4\npretrain_epochs = 1\n\nepochs = 1\nbatch_size = 64\n"


@FUZZ
@given(case=damages())
@example(case=("replace", 0.5, 0xFF))
@example(case=("flip", 0.3, 7))
def test_a_damaged_config_file_trains_or_fails_with_one_located_config_error(world, tmp_path, capsys, case):
    path = tmp_path / "run.cfg"
    path.write_bytes(damage(CONFIG, case))
    outdir = tmp_path / "model"
    shutil.rmtree(outdir, ignore_errors=True)
    capsys.readouterr()
    code = main(
        ["train", "--data", world["data"], "--outdir", str(outdir), "--model", "gbmf", "--config", str(path),
         *TRAIN_ARGS]
    )
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code:
        assert out == ""
        head, *problems = err.splitlines()
        assert head == "error: invalid configuration:" and problems, err
        assert all(p.startswith(f"  {path}") for p in problems), err
