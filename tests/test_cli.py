"""End-to-end command-line pipeline, run in-process via main()."""

import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest

from gbrec.checkpoint import load_checkpoint, save_checkpoint
from gbrec.cli import main
from gbrec.config import CheckpointError, Hyperparams
from gbrec.data import (
    BehaviorLog,
    DatasetSplit,
    IngestError,
    SocialGraph,
    load_split_dir,
    user_interactions,
    write_npz,
)
from gbrec.kernels import CSR
from gbrec.model import init_params
from gbrec.rawdata import DatasetStats, save_split_dir
from gbrec.scoring import FLAT_TENSOR_FIELDS, init_flat_params

import helpers


SYNTH_ARGS = [
    "--num-users", "30",
    "--num-items", "12",
    "--num-records", "200",
    "--latent-dim", "4",
    "--mean-friends", "4.0",
]

TRAIN_ARGS = [
    "--dim", "8",
    "--pretrain-epochs", "2",
    "--pretrain-lr", "0.01",
    "--epochs", "3",
    "--finetune-lr", "0.01",
    "--batch-size", "64",
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    raise AssertionError(f"no {key}= line in output:\n{out}")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> prepare -> train, shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("cli")
    synthdir = str(root / "raw")
    datadir = str(root / "data")
    modeldir = str(root / "model")

    assert main(["synth", "--outdir", synthdir, "--seed", "1", *SYNTH_ARGS]) == 0
    behaviors = os.path.join(synthdir, "behaviors.tsv")
    social = os.path.join(synthdir, "social.tsv")
    assert os.path.exists(behaviors) and os.path.exists(social)

    assert main(["prepare", behaviors, social, "--outdir", datadir, "--seed", "3", "--negatives", "8"]) == 0
    assert main(["train", "--data", datadir, "--outdir", modeldir, "--model", "gbmf", "--seed", "0", *TRAIN_ARGS]) == 0
    return {
        "behaviors": behaviors,
        "social": social,
        "datadir": datadir,
        "checkpoint": os.path.join(modeldir, "checkpoint.bin"),
        "training_log": os.path.join(modeldir, "training_log.jsonl"),
    }


def test_synth_prints_counters_and_paths(tmp_path, capsys):
    code, out, _ = run(capsys, ["synth", "--outdir", str(tmp_path), "--seed", "2", *SYNTH_ARGS])
    assert code == 0
    assert out_value(out, "behaviors").endswith("behaviors.tsv")
    assert int(out_value(out, "num_users")) == 30
    assert int(out_value(out, "num_items")) == 12


def test_prepare_reports_split_and_digest(pipeline, tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["prepare", pipeline["behaviors"], pipeline["social"], "--outdir", str(tmp_path), "--seed", "3", "--negatives", "8"],
    )
    assert code == 0
    assert int(out_value(out, "train_records")) > 0
    assert int(out_value(out, "test_users")) > 0
    digest = out_value(out, "negatives_digest")
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    # same inputs + seed reproduce the frozen negatives exactly
    code2, out2, _ = run(
        capsys,
        ["prepare", pipeline["behaviors"], pipeline["social"], "--outdir", str(tmp_path / "again"), "--seed", "3", "--negatives", "8"],
    )
    assert code2 == 0
    assert out_value(out2, "negatives_digest") == digest


def test_train_writes_checkpoint_and_log(pipeline, capsys):
    assert os.path.exists(pipeline["checkpoint"])
    with open(pipeline["training_log"], encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    assert entries, "training log is empty"
    assert {"stage", "epoch", "total", "val_ndcg10"} <= set(entries[0])
    # retraining with the same seed reproduces the log hash
    code, out, _ = run(
        capsys,
        ["train", "--data", pipeline["datadir"], "--outdir", pipeline["datadir"] + "-retrain",
         "--model", "gbmf", "--seed", "0", *TRAIN_ARGS],
    )
    assert code == 0
    hash_one = out_value(out, "training_log_hash")
    assert len(hash_one) == 64


def test_evaluate_prints_metrics_and_writes_json(pipeline, tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    code, out, _ = run(
        capsys,
        ["evaluate", "--checkpoint", pipeline["checkpoint"], "--data", pipeline["datadir"],
         "--ks", "1,5", "--out", report_path],
    )
    assert code == 0
    assert "recall@1=" in out and "ndcg@5=" in out
    assert "recall@10=" not in out  # --ks overrides the checkpoint's defaults
    with open(report_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["model_type"] == "gbmf"
    assert payload["negatives_digest"] == out_value(out, "negatives_digest")
    assert str(payload["num_users"]) == out_value(out, "users")


def test_recommend_emits_ranked_unseen_items(pipeline, capsys):
    code, out, _ = run(
        capsys,
        ["recommend", "--checkpoint", pipeline["checkpoint"], "--data", pipeline["datadir"],
         "--user", "0", "--k", "5"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert 0 < len(lines) <= 5
    items = []
    scores = []
    for line in lines:
        item_s, score_s = line.split("\t")
        items.append(int(item_s))
        scores.append(float(score_s))
    assert scores == sorted(scores, reverse=True)
    split, _, _ = load_split_dir(pipeline["datadir"])
    assert set(items).isdisjoint(user_interactions(split.train).neighbors(0).tolist())


def test_recommend_reads_only_the_training_files(pipeline, tmp_path, capsys):
    argv = ["recommend", "--checkpoint", pipeline["checkpoint"], "--user", "0", "--k", "5"]
    code, full, _ = run(capsys, [*argv, "--data", pipeline["datadir"]])
    assert code == 0
    # no .tsv file and no held-out array or negatives: the training side alone
    datadir = str(tmp_path / "data")
    os.makedirs(datadir)
    shutil.copy(os.path.join(pipeline["datadir"], "stats.json"), datadir)
    _rewrite_npz(
        os.path.join(pipeline["datadir"], "split.npz"), os.path.join(datadir, "split.npz"),
        lambda a: [a.pop(k) for k in list(a) if not k.startswith(("train_", "social_"))],
    )
    code, out, err = run(capsys, [*argv, "--data", datadir])
    assert code == 0, err
    assert out == full


def _rewrite_npz(src, dst, change):
    """Copy the arrays of ``src`` to ``dst`` through ``change(arrays)``."""
    with np.load(src, allow_pickle=False) as npz:
        arrays = {name: npz[name].copy() for name in npz.files}
    change(arrays)
    np.savez(dst, **arrays)


def _second_line(text, replacement):
    lines = text.splitlines(keepends=True)
    lines[1] = replacement + "\n"
    return "".join(lines)


def _drop_num_items(text):
    payload = json.loads(text)
    del payload["num_items"]
    return json.dumps(payload)


def _num_items_past_int64(text):
    payload = json.loads(text)
    payload["num_items"] = 2**64
    return json.dumps(payload)


def _set(name, at, value):
    def change(a):
        a[name][at] = value
    return change


def _replace(name, fn):
    def change(a):
        a[name] = fn(a[name])
    return change


def _repeat_first(name):
    """The array's second entry set to its first."""
    return _replace(name, lambda x: np.concatenate([x[:1], x[:1], x[2:]]))


def _with_an_id_past_int64(ids):
    ids = ids.astype(np.uint64)
    ids[1] = 2**64 - 1
    return ids


def _empty_row_of_first_test_user(a):
    u = a["test_initiator"][0]
    ptr, ids = a["negatives_indptr"], a["negatives_indices"]
    a["negatives_indices"] = np.delete(ids, np.arange(ptr[u], ptr[u + 1]))
    ptr[u + 1 :] -= ptr[u + 1] - ptr[u]


@pytest.mark.parametrize(
    "name, corrupt, where",
    [
        ("split.npz", _replace("train_item", lambda x: x[:-1]), "split.npz: train_item holds"),
        ("split.npz", _replace("negatives_indices", lambda x: x.astype(np.float64)), "split.npz: negatives_indices: float64 array"),
        ("split.npz", _set("negatives_indices", 1, 12), "split.npz: negatives_indices[1]: item id 12 out of range [0, 12)"),
        # every split dir written before the negatives were stored narrow
        (
            "split.npz", _replace("negatives_indices", lambda x: x.astype(np.int64)),
            ("split.npz: negatives_indices: int64 array", "expected uint8", "write this split dir again with gbrec prepare"),
        ),
        ("stats.json", _drop_num_items, "stats.json: missing key 'num_items'"),
        ("stats.json", _num_items_past_int64, "stats.json: 'num_items' must be an integer in [0, 2**63), got 18446744073709551616"),
        ("split.npz", _replace("negatives_indices", _with_an_id_past_int64), "split.npz: negatives_indices: uint64 array"),
        ("split.npz", _replace("social_pairs", lambda x: np.r_[x, [[1, 30]]]), ("split.npz: social_pairs[", ", 1]: user id 30 out of range [0, 30)")),
        ("split.npz", _set("train_item", 1, 99), "split.npz: train_item[1]: item id 99 out of range [0, 12)"),
        ("split.npz", _set("train_part_indices", 1, 30), "split.npz: train_part_indices[1]: user id 30 out of range [0, 30)"),
        ("split.npz", _set("validation_initiator", 1, 30), "split.npz: validation_initiator[1]: user id 30 out of range [0, 30)"),
        ("split.npz", _repeat_first("validation_initiator"), ("split.npz: validation_initiator[1]: user", "listed twice")),
        ("split.npz", _repeat_first("test_initiator"), ("split.npz: test_initiator[1]: user", "listed twice")),
        ("split.npz", _repeat_first("negatives_indices"), ("split.npz: negatives_indices[1]: user", "negatives are not sorted and distinct")),
        ("split.npz", _empty_row_of_first_test_user, "split.npz: negatives_indptr: no negatives for user"),
        ("split.npz", _replace("test_initiator", lambda x: np.r_[x[1], x[0], x[2:]]), ("split.npz: test_initiator[1]: user", "out of ascending order")),
        ("split.npz", _replace("negatives_indptr", lambda x: np.r_[x[:3], x[2] - 1, x[4:]]), "split.npz: negatives_indptr does not rise"),
        ("split.npz", None, "split.npz: no such file; write this split dir again with gbrec prepare"),
    ],
    ids=[
        "train-column-short", "non-integer-item", "item-past-range", "legacy-int64-negatives", "stats-missing-key",
        "stats-items-past-int64", "item-past-int64", "social-past-range", "train-item-past-range", "train-participant-past-range",
        "validation-user-past-range", "validation-user-twice", "test-user-twice", "negatives-id-twice",
        "negatives-missing-held-out-user", "test-users-out-of-order", "negatives-offsets-fall", "no-split-npz",
    ],
)
def test_bad_split_dir_fails_with_one_located_error(pipeline, tmp_path, capsys, name, corrupt, where):
    datadir = str(tmp_path / "data")
    shutil.copytree(pipeline["datadir"], datadir)
    path = os.path.join(datadir, name)
    if corrupt is None:
        os.remove(path)
    elif name == "split.npz":
        _rewrite_npz(path, path, corrupt)
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(corrupt(text))

    parts = where if isinstance(where, tuple) else (where,)  # each must appear, in order
    with pytest.raises(IngestError, match=".*".join(map(re.escape, parts))):
        load_split_dir(datadir)
    code, out, err = run(capsys, ["evaluate", "--checkpoint", pipeline["checkpoint"], "--data", datadir])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert all(part in err for part in parts)


def test_recommend_into_a_closed_pipe_exits_quietly(tmp_path):
    # 20,000 items: far more output than the pipe holds once the reader is gone
    num_items = 20_000
    datadir = tmp_path / "data"
    # user 0 launched item 0, and user 1 joined
    train = BehaviorLog(np.array([0]), np.array([0]), np.array([True]), np.array([0, 1]), np.array([1]), 2, num_items)
    negatives = CSR(2, num_items, np.zeros(3, dtype=np.int64), np.empty(0, dtype=np.int64))
    split = DatasetSplit(train, train.take([]), train.take([]), negatives, 2, num_items)
    save_split_dir(
        str(datadir), split, SocialGraph.from_edges(2, np.array([[0, 1]])), DatasetStats(2, num_items, 1, 1, 0, 1), 0
    )
    checkpoint = str(tmp_path / "checkpoint.bin")
    save_checkpoint(checkpoint, "gbmf", init_flat_params(2, num_items, 4, seed=0), Hyperparams(dim=4))
    argv = ["recommend", "--checkpoint", checkpoint, "--data", str(datadir), "--user", "1", "--k", str(num_items)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gbrec.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=helpers.child_env()
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first.count(b"\t") == 1
    assert err == b""


def test_train_gives_one_hash_whatever_the_blas_threads(tmp_path):
    # 500 users: the item-side graph means and the dense score pass sum over 500
    # rows, where OpenBLAS rounds differently at one thread and at two. A default
    # run must take one thread, as a run with the variables set to 1 does. On a
    # one-core host both runs take one thread anyway, and the test passes trivially.
    raw, data = str(tmp_path / "raw"), str(tmp_path / "data")
    world = ["--num-users", "500", "--num-items", "100", "--num-records", "3000", "--latent-dim", "4"]
    assert main(["synth", "--outdir", raw, "--seed", "0", *world]) == 0
    behaviors, social = os.path.join(raw, "behaviors.tsv"), os.path.join(raw, "social.tsv")
    assert main(["prepare", behaviors, social, "--outdir", data, "--negatives", "8"]) == 0
    hashes = []
    for threads in (None, "1"):
        env = helpers.child_env()
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
            if threads is not None:
                env[var] = threads
        argv = ["train", "--data", data, "--outdir", str(tmp_path / f"run-{threads}"), "--dim", "16",
                "--num-layers", "2", "--pretrain-epochs", "1", "--epochs", "1", "--batch-size", "10000"]
        proc = subprocess.run(
            [sys.executable, "-m", "gbrec.cli", *argv], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        hashes.append(out_value(proc.stdout, "training_log_hash"))
    assert hashes[0] == hashes[1]


# each command runs in a child process, which then writes the gbrec modules it
# loaded to the file named by its first argument
LOADED_MODULES = (
    "import json, sys\n"
    "from gbrec.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    json.dump(sorted(m for m in sys.modules if m.split('.')[0] == 'gbrec'), fh)\n"
    "sys.exit(code)\n"
)
EVERY_COMMAND = {"gbrec", "gbrec.cli", "gbrec.config", "gbrec.data", "gbrec.kernels"}
TRAINING = {"baselines", "checkpoint", "evaluate", "graphs", "loss", "model", "scoring", "trainer"}
COMMAND_MODULES = {
    "synth": {"rawdata", "synthetic"},
    "prepare": {"rawdata", "evaluate"},
    "train-gbgcn": TRAINING,
    "train-gbmf": TRAINING,
    "evaluate-gbgcn": {"checkpoint", "evaluate", "graphs", "model", "scoring"},
    "evaluate-gbmf": {"checkpoint", "evaluate", "scoring"},
    "recommend-gbgcn": {"checkpoint", "graphs", "model", "scoring"},
    "recommend-gbmf": {"checkpoint", "scoring"},
}


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory):
    """Every command of a tiny pipeline, each in its own process: the gbrec
    modules that each one loaded."""
    root = tmp_path_factory.mktemp("imports")
    raw, data = str(root / "raw"), str(root / "data")
    small = ["--dim", "4", "--pretrain-epochs", "1", "--epochs", "1", "--batch-size", "64"]
    steps = {
        "synth": ["synth", "--outdir", raw, "--seed", "1", *SYNTH_ARGS],
        "prepare": ["prepare", os.path.join(raw, "behaviors.tsv"), os.path.join(raw, "social.tsv"),
                    "--outdir", data, "--negatives", "8"],
    }
    for model in ("gbgcn", "gbmf"):
        ckpt = str(root / model / "checkpoint.bin")
        steps[f"train-{model}"] = ["train", "--data", data, "--outdir", str(root / model), "--model", model, *small]
        steps[f"evaluate-{model}"] = ["evaluate", "--data", data, "--checkpoint", ckpt]
        steps[f"recommend-{model}"] = ["recommend", "--data", data, "--checkpoint", ckpt, "--user", "0"]
    loaded = {}
    for name, argv in steps.items():
        out = str(root / f"{name}.json")
        proc = subprocess.run(
            [sys.executable, "-c", LOADED_MODULES, out, *argv], capture_output=True, env=helpers.child_env(), timeout=300
        )
        assert proc.returncode == 0, proc.stderr.decode()
        with open(out, encoding="utf-8") as fh:
            loaded[name] = set(json.load(fh))
    return loaded


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_its_own_modules(loaded_modules, command):
    # a module imported at the top of another, where one command needs it,
    # loads it for every command: this names the command that then loads too much
    assert loaded_modules[command] == EVERY_COMMAND | {f"gbrec.{m}" for m in COMMAND_MODULES[command]}


def _with_hyperparams(src, dst, drop=(), **changes):
    """Copy a checkpoint, through the shared writer, with some stored
    hyperparameters replaced and those in ``drop`` removed."""
    with np.load(src) as npz:
        arrays = {name: npz[name] for name in npz.files}
    meta = json.loads(arrays["meta"].tobytes())
    meta["hyperparams"].update(changes)
    for name in drop:
        del meta["hyperparams"][name]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    write_npz(dst, arrays)


def _gbgcn_checkpoint(pipeline, path):
    split, _, _ = load_split_dir(pipeline["datadir"])
    hp = Hyperparams(dim=8, num_layers=2)
    save_checkpoint(path, "gbgcn", init_params(split.num_users, split.num_items, hp, seed=0), hp)
    return path


RETRAIN = "; write this checkpoint again with gbrec train"


@pytest.mark.parametrize(
    "model, changes, problem",
    [
        # the stored weights are (num_layers + 1) * dim = 24 wide
        ("gbgcn", {"num_layers": 3}, "w_item_to_user_launch: float32 array of shape (24, 24), expected float32 of shape (n, 32)"),
        ("gbmf", {"dim": []}, "bad hyperparameters: dim must be int, got []"),
        ("gbmf", {"beta": float("nan")}, "bad hyperparameters: beta must be finite, got nan"),
    ],
    ids=["layers-over-header", "dim-not-an-int", "beta-nan"],
)
def test_checkpoint_hyperparams_disagreeing_with_the_header_fail_with_one_located_error(
    pipeline, tmp_path, capsys, model, changes, problem
):
    src = _gbgcn_checkpoint(pipeline, str(tmp_path / "gbgcn.bin")) if model == "gbgcn" else pipeline["checkpoint"]
    assert main(["evaluate", "--checkpoint", src, "--data", pipeline["datadir"]]) == 0
    capsys.readouterr()
    bad = str(tmp_path / "bad.bin")
    _with_hyperparams(src, bad, **changes)

    code, out, err = run(capsys, ["evaluate", "--checkpoint", bad, "--data", pipeline["datadir"]])
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [f"error: {bad}: {problem}{RETRAIN}"]


def test_a_checkpoint_whose_sizes_overflow_int64_fails_with_one_located_error(pipeline, tmp_path, capsys):
    # user_emb's .npy header claims 2**62 rows, whose 2**62 * dim * 4 bytes
    # overflow int64; the claim is checked against the member's size before
    # any array is made
    dim = load_checkpoint(pipeline["checkpoint"]).hp.dim
    bad = str(tmp_path / "huge.bin")
    with zipfile.ZipFile(pipeline["checkpoint"]) as src, zipfile.ZipFile(bad, "w") as dst:
        for info in src.infolist():
            member = src.read(info)
            if info.filename == "user_emb.npy":
                fh = io.BytesIO(member)
                np.lib.format.read_magic(fh)
                np.lib.format.read_array_header_1_0(fh)
                header = io.BytesIO()
                np.lib.format.write_array_header_1_0(header, {"descr": "<f4", "fortran_order": False, "shape": (2**62, dim)})
                member = header.getvalue() + member[fh.tell() :]
                size = len(member)
            dst.writestr(info, member)

    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    code, out, err = run(capsys, ["evaluate", "--checkpoint", bad, "--data", pipeline["datadir"]])
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [
        f"error: {bad}: user_emb: shape ({2**62}, {dim}) does not fill the member's {size} bytes{RETRAIN}"
    ]


def test_a_checkpoint_missing_a_hyperparameter_fails_naming_it(pipeline, tmp_path, capsys):
    # filled with its default, a missing alpha would silently change every score
    bad = str(tmp_path / "no-alpha.bin")
    _with_hyperparams(pipeline["checkpoint"], bad, drop=("alpha",))

    code, out, err = run(capsys, ["evaluate", "--checkpoint", bad, "--data", pipeline["datadir"]])
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [f"error: {bad}: bad hyperparameters: missing alpha{RETRAIN}"]


def test_a_checkpoint_holding_a_removed_hyperparameter_loads_unchanged(pipeline, tmp_path):
    # every checkpoint written before the role-scored variant was removed stores its field
    old = str(tmp_path / "old.bin")
    _with_hyperparams(pipeline["checkpoint"], old, role_scores=True)
    want, got = load_checkpoint(pipeline["checkpoint"]), load_checkpoint(old)
    assert (got.model_type, got.hp) == (want.model_type, want.hp)
    for name in FLAT_TENSOR_FIELDS:
        np.testing.assert_array_equal(getattr(got.params, name), getattr(want.params, name))


def test_a_format_1_checkpoint_fails_with_one_line_asking_for_gbrec_train(pipeline, tmp_path, capsys):
    # the binary layout checkpoints had before they were .npz files: magic,
    # version 1, model type, P, Q, d, L, the JSON's length and flags, the
    # hyperparameter JSON, then the float32 tensors
    old = str(tmp_path / "checkpoint.bin")
    with open(old, "wb") as fh:
        fh.write(b"GBGC" + struct.pack("<8I", 1, 1, 30, 12, 4, 0, 2, 0) + b"{}" + bytes(4 * 42 * 4))

    code, out, err = run(capsys, ["evaluate", "--checkpoint", old, "--data", pipeline["datadir"]])
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [f"error: {old}: unreadable: BadZipFile: File is not a zip file{RETRAIN}"]


@pytest.mark.parametrize("command", ["evaluate", "recommend"])
def test_a_checkpoint_of_another_shape_fails_naming_both_paths(pipeline, tmp_path, capsys, command):
    split, _, _ = load_split_dir(pipeline["datadir"])
    P, Q = split.num_users + 1, split.num_items
    checkpoint = str(tmp_path / "other.bin")
    save_checkpoint(checkpoint, "gbmf", init_flat_params(P, Q, 4, seed=0), Hyperparams(dim=4))
    argv = [command, "--checkpoint", checkpoint, "--data", pipeline["datadir"]]
    code, out, err = run(capsys, argv + (["--user", "0"] if command == "recommend" else []))
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [
        f"error: {checkpoint} holds {P} users x {Q} items but the data dir {pipeline['datadir']} has {P - 1} x {Q}"
    ]


def test_recommend_rejects_unknown_user(pipeline, tmp_path, capsys):
    num_users = load_split_dir(pipeline["datadir"])[0].num_users
    want = [f"error: --user 99999 is out of range: the data dir {pipeline['datadir']} has {num_users} users"]
    # the user is checked before the checkpoint is read, so a missing checkpoint gives the same one line
    for checkpoint in (pipeline["checkpoint"], str(tmp_path / "missing.bin")):
        code, out, err = run(
            capsys,
            ["recommend", "--checkpoint", checkpoint, "--data", pipeline["datadir"], "--user", "99999", "--k", "5"],
        )
        assert code == 1
        assert out == ""
        assert err.strip().splitlines() == want


@pytest.mark.parametrize("k", ["0", "-5"])
def test_recommend_rejects_k_below_one(pipeline, capsys, k):
    code, out, err = run(
        capsys,
        ["recommend", "--checkpoint", pipeline["checkpoint"], "--data", pipeline["datadir"],
         "--user", "0", "--k", k],
    )
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: --k must be >= 1, got {k}"]


@pytest.mark.parametrize("negatives", ["0", "-5"])
def test_prepare_rejects_negatives_below_one_before_reading(tmp_path, capsys, negatives):
    missing = str(tmp_path / "nothing-here")
    code, out, err = run(capsys, ["prepare", missing, missing, "--outdir", str(tmp_path / "data"), "--negatives", negatives])
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: --negatives must be >= 1, got {negatives}"]
    assert not os.path.exists(tmp_path / "data")


@pytest.mark.parametrize("ks", ["0", "-3", "5,0"])
def test_evaluate_rejects_k_below_one_before_loading(tmp_path, capsys, ks):
    missing = str(tmp_path / "nothing-here")
    code, out, err = run(capsys, ["evaluate", "--checkpoint", missing, "--data", missing, "--ks", ks])
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: --ks must be >= 1, got {min(int(k) for k in ks.split(','))}"]


def test_evaluate_with_a_directory_as_checkpoint_fails_with_one_line(pipeline, tmp_path, capsys):
    code, out, err = run(capsys, ["evaluate", "--checkpoint", str(tmp_path), "--data", pipeline["datadir"]])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and str(tmp_path) in err


def test_train_into_an_existing_file_fails_with_one_line(pipeline, tmp_path, capsys):
    outdir = tmp_path / "taken"
    outdir.write_text("not a directory\n")
    code, out, err = run(
        capsys,
        ["train", "--data", pipeline["datadir"], "--outdir", str(outdir), "--model", "gbmf", "--seed", "0", *TRAIN_ARGS],
    )
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and str(outdir) in err


def test_bad_hyperparameter_exits_2(pipeline, capsys):
    code, _, err = run(
        capsys,
        ["train", "--data", pipeline["datadir"], "--outdir", pipeline["datadir"] + "-bad",
         "--model", "gbmf", "--alpha", "1.5"],
    )
    assert code == 2
    assert "invalid configuration" in err
    assert "alpha" in err


@pytest.mark.parametrize("flag, value", [("--mean-friends", "inf"), ("--mean-friends", "nan"),
                                         ("--item-temp", "nan"), ("--join-scale", "nan"), ("--join-bias", "-inf")])
def test_synth_rejects_a_non_finite_float_exits_2(tmp_path, capsys, flag, value):
    code, _, err = run(capsys, ["synth", "--outdir", str(tmp_path / "w"), "--seed", "0", *SYNTH_ARGS, f"{flag}={value}"])
    assert code == 2
    name = flag[2:].replace("-", "_")
    assert err == f"error: invalid configuration:\n  {name} must be finite, got {float(value)}\n"
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag", ["--beta", "--activation-slope", "--l2-coeff", "--social-reg-coeff", "--pretrain-lr", "--finetune-lr"]
)
def test_train_rejects_a_non_finite_float_exits_2(pipeline, tmp_path, capsys, flag, value):
    outdir = tmp_path / "model"
    code, _, err = run(
        capsys, ["train", "--data", pipeline["datadir"], "--outdir", str(outdir), "--model", "gbmf", f"{flag}={value}"]
    )
    assert code == 2
    name = flag[2:].replace("-", "_")
    assert err == f"error: invalid configuration:\n  {name} must be finite, got {float(value)}\n"
    assert not outdir.exists()


def test_missing_input_exits_1(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["prepare", str(tmp_path / "nope.tsv"), str(tmp_path / "nope2.tsv"), "--outdir", str(tmp_path / "d")],
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "name, line",
    [
        ("behaviors.tsv", "5\t99999999999999999999\t-\t1"),
        ("social.tsv", "99999999999999999999\t1"),
        ("behaviors.tsv", "5\t9223372036854775808\t-\t1"),  # fits uint64: only the bound stops it
    ],
)
def test_prepare_rejects_an_id_past_int64(pipeline, tmp_path, capsys, name, line):
    paths = {}
    for key in ("behaviors", "social"):
        paths[key] = str(tmp_path / os.path.basename(pipeline[key]))
        shutil.copy(pipeline[key], paths[key])
    path = str(tmp_path / name)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_second_line(text, line))

    code, out, err = run(capsys, ["prepare", paths["behaviors"], paths["social"], "--outdir", str(tmp_path / "d")])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    big = max(line.split("\t"), key=len)
    assert f"{name}:2: id {big} too large" in err


def test_config_file_feeds_train(pipeline, tmp_path, capsys):
    cfg = tmp_path / "hp.cfg"
    cfg.write_text("dim = 8\nepochs = 1\npretrain_epochs = 1\npretrain_lr = 0.01\nfinetune_lr = 0.01\nbatch_size = 64\n")
    code, out, _ = run(
        capsys,
        ["train", "--data", pipeline["datadir"], "--outdir", str(tmp_path / "m"),
         "--model", "mf", "--seed", "1", "--config", str(cfg)],
    )
    assert code == 0
    assert out_value(out, "model") == "mf"
