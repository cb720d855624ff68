"""End-to-end command-line pipeline, run in-process via main()."""

import json
import os

import pytest

from gbrec.cli import main
from gbrec.data import load_split_dir, user_interactions


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

    assert main(["--threads", "1", "synth", "--outdir", synthdir, "--seed", "1", *SYNTH_ARGS]) == 0
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
    assert set(items).isdisjoint(user_interactions(split.train)[0])


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


def test_bad_hyperparameter_exits_2(pipeline, capsys):
    code, _, err = run(
        capsys,
        ["train", "--data", pipeline["datadir"], "--outdir", pipeline["datadir"] + "-bad",
         "--model", "gbmf", "--alpha", "1.5"],
    )
    assert code == 2
    assert "invalid configuration" in err
    assert "alpha" in err


def test_bad_thread_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GBREC_NUM_THREADS", "many")
    code, _, err = run(capsys, ["synth", "--outdir", str(tmp_path), "--seed", "0", *SYNTH_ARGS])
    assert code == 2
    assert "GBREC_NUM_THREADS" in err


def test_missing_input_exits_1(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["prepare", str(tmp_path / "nope.tsv"), str(tmp_path / "nope2.tsv"), "--outdir", str(tmp_path / "d")],
    )
    assert code == 1
    assert "error:" in err


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
