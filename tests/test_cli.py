"""End-to-end command-line pipeline, run in-process via main()."""

import json
import os
import re
import shutil
import struct
import subprocess
import sys

import pytest

from gbrec.cli import main
from gbrec.data import IngestError, load_split_dir, user_interactions
from gbrec.model import Hyperparams, init_flat_params, init_params
from gbrec.trainer import save_checkpoint


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
    datadir = str(tmp_path / "data")
    shutil.copytree(pipeline["datadir"], datadir)
    for name in ("validation.tsv", "test.tsv", "negatives.tsv"):
        os.remove(os.path.join(datadir, name))
    code, out, err = run(capsys, [*argv, "--data", datadir])
    assert code == 0, err
    assert out == full


def _second_line(text, replacement):
    lines = text.splitlines(keepends=True)
    lines[1] = replacement + "\n"
    return "".join(lines)


def _drop_num_items(text):
    payload = json.loads(text)
    del payload["num_items"]
    return json.dumps(payload)


@pytest.mark.parametrize(
    "name, corrupt, where",
    [
        ("negatives.tsv", lambda t: _second_line(t, "1 2,3"), "negatives.tsv:2"),
        ("negatives.tsv", lambda t: _second_line(t, "1\t2,x,3"), "negatives.tsv:2"),
        ("negatives.tsv", lambda t: _second_line(t, "1\t2,12"), "negatives.tsv:2"),
        ("negatives.tsv", lambda t: _second_line(t, "1\t-1,2"), "negatives.tsv:2"),
        ("stats.json", _drop_num_items, "stats.json: missing key 'num_items'"),
        ("negatives.tsv", lambda t: _second_line(t, "1\t2,99999999999999999999"), "negatives.tsv:2: id 99999999999999999999 too large"),
        ("social.tsv", lambda t: t + "1\t30\n", "social.tsv: user id 30 out of range"),
        ("train.tsv", lambda t: _second_line(t, "1\t99\t-\t1"), "train.tsv:2: item id 99 out of range [0, 12)"),
        ("train.tsv", lambda t: _second_line(t, "1\t2\t5,30\t1"), "train.tsv:2: user id 30 out of range [0, 30)"),
        ("validation.tsv", lambda t: _second_line(t, "30\t2\t-\t0"), "validation.tsv:2: user id 30 out of range [0, 30)"),
        ("validation.tsv", lambda t: "7\t1\t-\t1\n7\t2\t-\t0\n" + t, "validation.tsv:2: user 7 listed twice (first on line 1)"),
        ("test.tsv", lambda t: "7\t1\t-\t1\n7\t2\t-\t0\n" + t, "test.tsv:2: user 7 listed twice (first on line 1)"),
        ("negatives.tsv", lambda t: "7\t1,2\n7\t1,2\n" + t, "negatives.tsv:2: user 7 listed twice (first on line 1)"),
        ("negatives.tsv", lambda t: t.split("\n", 1)[1], "negatives.tsv: no line for user"),
    ],
    ids=[
        "no-tab", "non-integer-item", "item-past-range", "negative-item", "stats-missing-key", "item-past-int64",
        "social-past-range", "train-item-past-range", "train-participant-past-range", "validation-user-past-range",
        "validation-user-twice", "test-user-twice", "negatives-user-twice", "negatives-missing-held-out-user",
    ],
)
def test_bad_split_dir_fails_with_one_located_error(pipeline, tmp_path, capsys, name, corrupt, where):
    datadir = str(tmp_path / "data")
    shutil.copytree(pipeline["datadir"], datadir)
    path = os.path.join(datadir, name)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corrupt(text))

    with pytest.raises(IngestError, match=re.escape(where)):
        load_split_dir(datadir)
    code, out, err = run(capsys, ["evaluate", "--checkpoint", pipeline["checkpoint"], "--data", datadir])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert where in err


def test_recommend_into_a_closed_pipe_exits_quietly(tmp_path):
    # 20,000 items: far more output than the pipe holds once the reader is gone
    num_items = 20_000
    datadir = tmp_path / "data"
    datadir.mkdir()
    (datadir / "stats.json").write_text(json.dumps({"num_users": 2, "num_items": num_items}))
    (datadir / "train.tsv").write_text("0\t0\t1\t1\n")
    (datadir / "social.tsv").write_text("0\t1\n")
    checkpoint = str(tmp_path / "checkpoint.bin")
    save_checkpoint(checkpoint, "gbmf", init_flat_params(2, num_items, 4, seed=0), Hyperparams(dim=4))
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["recommend", "--checkpoint", checkpoint, "--data", str(datadir), "--user", "1", "--k", str(num_items)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gbrec.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first.count(b"\t") == 1
    assert err == b""


def _with_hyperparams(src, dst, **changes):
    """Copy a checkpoint with some stored hyperparameters replaced."""
    with open(src, "rb") as fh:
        blob = fh.read()
    (hp_len,) = struct.unpack_from("<I", blob, 28)
    hp = json.loads(blob[36 : 36 + hp_len])
    hp.update(changes)
    hp_json = json.dumps(hp).encode()
    with open(dst, "wb") as fh:
        fh.write(blob[:28] + struct.pack("<I", len(hp_json)) + blob[32:36] + hp_json + blob[36 + hp_len :])


def _gbgcn_checkpoint(pipeline, path):
    split, _, _ = load_split_dir(pipeline["datadir"])
    hp = Hyperparams(dim=8, num_layers=2)
    save_checkpoint(path, "gbgcn", init_params(split.num_users, split.num_items, hp, seed=0), hp)
    return path


@pytest.mark.parametrize(
    "model, changes, problem",
    [
        ("gbgcn", {"num_layers": 3}, "num_layers 3 does not match the header's L = 2"),
        ("gbmf", {"dim": []}, "dim must be int, got []"),
        ("gbmf", {"beta": float("nan")}, "beta must be finite, got nan"),
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
    assert err.strip().splitlines() == [f"error: {bad}: bad hyperparameters: {problem}"]


def test_recommend_rejects_unknown_user(pipeline, capsys):
    code, _, err = run(
        capsys,
        ["recommend", "--checkpoint", pipeline["checkpoint"], "--data", pipeline["datadir"],
         "--user", "99999", "--k", "5"],
    )
    assert code == 1
    assert "out of range" in err


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


@pytest.mark.parametrize("name, line", [("behaviors.tsv", "5\t99999999999999999999\t-\t1"), ("social.tsv", "99999999999999999999\t1")])
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
    assert f"{name}:2: id 99999999999999999999 too large" in err


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
