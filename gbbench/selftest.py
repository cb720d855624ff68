"""Self-test of the benchmark's output checks on a tiny world.

Run from the repository root::

    python3 gbbench/selftest.py

For a tiny GBGCN world and a tiny gbmf world it runs the pipeline once and
requires every check to pass on the real outputs. Then it corrupts one output
at a time (a printed digest, a counter, a frozen negative list, a split
record, the training log, the evaluation report, the checkpoint behind it, a
recommendation list) and requires the matching check to reject it. It prints
one line per case and exits non-zero if a real output was rejected or a
corrupted one was accepted.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import numpy as np

import run  # sets the one-thread BLAS environment before numpy loads
from checks import (
    CheckFailed,
    ReferenceScorer,
    check_evaluate,
    check_prepare,
    check_recommend,
    check_train,
    parse_kv,
    read_launches,
    touched_items,
)

TINY = (
    run.Workload(
        name="tiny-gbgcn",
        world_seed=0,
        synth=dict(num_users=60, num_items=120, latent_dim=4, num_records=1200, mean_friends=4.0, item_temp=0.05),
        model="gbgcn",
        train=dict(dim=8, num_layers=1, neg_ratio=1, batch_size=512, pretrain_epochs=1, pretrain_lr=5e-2,
                   epochs=1, finetune_lr=5e-2),
        prepare_reps=1,
    ),
    run.Workload(
        name="tiny-gbmf",
        world_seed=0,
        synth=dict(num_users=80, num_items=150, latent_dim=4, num_records=1200, mean_friends=4.0, item_temp=0.05),
        model="gbmf",
        train=dict(dim=8, neg_ratio=3, batch_size=512, pretrain_epochs=1, pretrain_lr=5e-2, epochs=1,
                   finetune_lr=5e-2),
        prepare_reps=1,
    ),
)


def edit_lines(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def corrupt_split(split_dir: str, scratch: str, name: str, edit) -> str:
    """A copy of the split dir with one file edited line-wise."""
    out = os.path.join(scratch, f"split-{edit.__name__}")
    shutil.copytree(split_dir, out)
    edit_lines(os.path.join(out, name), edit)
    return out


def cases_for(wl: run.Workload, workdir: str, spawner: run.Spawner) -> tuple[list[str], list[tuple[str, callable]]]:
    """Runs the tiny pipeline; returns problems on real outputs and corruption cases."""
    tally = run.Tally()
    pipe = run.Pipeline(wl, 0, workdir, tally, False, workdir, spawner)
    hashes = run.HashRecord(os.path.join(workdir, "hashes.json"))
    _, counters = pipe.checked_synth()
    prepare, info = pipe.checked_prepare(1, counters)
    train, log_hash = pipe.checked_train(hashes)
    scorer = pipe.scorer(counters)
    evaluate, _ndcg = pipe.checked_evaluate(scorer)
    user = info["test_users"][0]
    recommend = pipe.checked_recommend(user, scorer)
    if not tally.problems and check_train(train.stdout, wl.epochs)["hash"] != log_hash:
        tally.problems.append("train hash changed between two reads")

    behaviors = os.path.join(pipe.raw, "behaviors.tsv")
    kv = parse_kv(prepare[0].stdout)
    touched = touched_items(read_launches(behaviors), counters["num_users"])
    scratch = os.path.join(workdir, "corrupt")
    os.makedirs(scratch, exist_ok=True)

    def prepare_with(stdout=prepare[0].stdout, split=pipe.data):
        return lambda: check_prepare(stdout, behaviors, split, counters, run.NUM_NEGATIVES)

    def bump(stdout: str, key: str, delta: float, fmt: str = "{}") -> str:
        value = parse_kv(stdout)[key]
        new = fmt.format(type(float(value) if "." in value else int(value))(float(value) + delta))
        return stdout.replace(f"{key}={value}", f"{key}={new}")

    def touched_negative(lines):
        user, items = lines[0].split("\t")
        items = items.split(",")
        items[0] = str(min(touched[int(user)]))
        return [f"{user}\t{','.join(items)}"] + lines[1:]

    def short_negative(lines):
        user, items = lines[0].split("\t")
        return [f"{user}\t{','.join(items.split(',')[:-1])}"] + lines[1:]

    def moved_record(lines):
        a, item, members, ok = lines[0].split("\t")
        return ["\t".join((a, str((int(item) + 1) % counters["num_items"]), members, ok))] + lines[1:]

    log_path = parse_kv(train.stdout)["training_log"]

    def train_log_with(edit):
        path = os.path.join(scratch, f"training_log-{edit.__name__}.jsonl")
        with open(log_path, encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh]
        with open(path, "w", encoding="utf-8") as fh:
            for e in edit(entries):
                fh.write(json.dumps(e) + "\n")
        return lambda: check_train(train.stdout.replace(log_path, path), wl.epochs)

    def nan_loss(entries):
        entries[0]["total"] = float("nan")
        return entries

    def last_epoch_dropped(entries):
        return entries[:-1]

    def other_checkpoint():
        from gbrec.trainer import load_checkpoint, save_checkpoint

        ckpt = load_checkpoint(os.path.join(pipe.run_dir, "checkpoint.bin"))
        ckpt.params.item_emb = ckpt.params.item_emb[::-1].copy()
        path = os.path.join(scratch, "reversed.bin")
        save_checkpoint(path, ckpt.model_type, ckpt.params, ckpt.hp)
        other = ReferenceScorer(path, pipe.data, counters["num_users"], counters["num_items"], run.TESTS_DIR)
        check_evaluate(evaluate.stdout, other, pipe.data)

    def random_level_report():
        flat = copy.copy(scorer)
        flat.scores = np.zeros_like(scorer.scores)  # every candidate ties: a report of 0 is consistent
        kv = parse_kv(evaluate.stdout)
        report = evaluate.stdout.replace(f"recall@10={kv['recall@10']}", "recall@10=0.000000")
        report = report.replace(f"ndcg@10={kv['ndcg@10']}", "ndcg@10=0.000000")
        check_evaluate(report, flat, pipe.data)

    rec = recommend.stdout.splitlines()
    worst_unseen = min(
        (i for i in range(counters["num_items"]) if i not in scorer.seen[user]), key=lambda i: scorer.scores[user, i]
    )
    some_seen = min(scorer.seen[user])

    def recommend_with(lines):
        return lambda: check_recommend("\n".join(lines) + "\n", user, scorer, run.RECOMMEND_K)

    cases = [
        ("prepare: printed digest altered", prepare_with(
            stdout=prepare[0].stdout.replace(kv["negatives_digest"], kv["negatives_digest"][::-1]))),
        ("prepare: printed success count off by one", prepare_with(stdout=bump(prepare[0].stdout, "num_success", 1))),
        ("prepare: negative list holds a touched item", prepare_with(
            split=corrupt_split(pipe.data, scratch, "negatives.tsv", touched_negative))),
        ("prepare: negative list one item short", prepare_with(
            split=corrupt_split(pipe.data, scratch, "negatives.tsv", short_negative))),
        ("prepare: a train record's item changed", prepare_with(
            split=corrupt_split(pipe.data, scratch, "train.tsv", moved_record))),
        ("train: a NaN loss in the log", train_log_with(nan_loss)),
        ("train: an epoch missing from the log", train_log_with(last_epoch_dropped)),
        ("train: another hash on the same commit and seed", lambda: hashes.agree(wl, 0, log_hash[::-1])),
        ("evaluate: ndcg@10 raised by 0.01", lambda: check_evaluate(
            bump(evaluate.stdout, "ndcg@10", 0.01, "{:.6f}"), scorer, pipe.data)),
        ("evaluate: recall@10 lowered by 0.02", lambda: check_evaluate(
            bump(evaluate.stdout, "recall@10", -0.02, "{:.6f}"), scorer, pipe.data)),
        ("evaluate: user count off by one", lambda: check_evaluate(
            bump(evaluate.stdout, "users", 1), scorer, pipe.data)),
        ("evaluate: report from another checkpoint", other_checkpoint),
        ("evaluate: a model no better than random", random_level_report),
        ("recommend: an item repeated", recommend_with([rec[0], rec[0]] + rec[2:])),
        ("recommend: a seen item listed", recommend_with(
            rec[:-1] + [f"{some_seen}\t{scorer.scores[user, some_seen]:.6f}"])),
        ("recommend: first two items swapped", recommend_with([rec[1], rec[0]] + rec[2:])),
        ("recommend: the worst unseen item listed last", recommend_with(
            rec[:-1] + [f"{worst_unseen}\t{scorer.scores[user, worst_unseen]:.6f}"])),
        ("recommend: nine items", recommend_with(rec[:-1])),
        ("recommend: a score misprinted", recommend_with(
            [rec[0].split("\t")[0] + "\t" + f"{float(rec[0].split(chr(9))[1]) + 0.5:.6f}"] + rec[1:])),
    ]
    return tally.problems, cases


def main() -> int:
    sys.path.insert(0, run.SRC_DIR)
    base = os.path.join(run.WORK_DIR, "selftest")
    shutil.rmtree(base, ignore_errors=True)
    bad = 0
    spawner = run.Spawner()
    for wl in TINY:
        workdir = os.path.join(base, wl.name)
        os.makedirs(workdir)
        try:
            problems, cases = cases_for(wl, workdir, spawner)
        except run.StepFailed as exc:
            problems, cases = [str(exc)], []
        for p in problems:
            print(f"FAIL   {wl.name}: a real output was rejected: {p}")
        bad += len(problems) or not cases
        for name, case in cases:
            try:
                case()
            except CheckFailed as exc:
                print(f"ok     {wl.name}: {name} -> rejected ({exc})")
            else:
                print(f"MISSED {wl.name}: {name} -> accepted")
                bad += 1
    spawner.close()
    if not bad:
        shutil.rmtree(base, ignore_errors=True)
    print("self-test", "passed" if not bad else f"FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
