"""Timing of ``gbrec prepare``, stage by stage.

* ``ingest`` -- the raw files read and their ids remapped;
* ``split_leave_one_out`` -- the held-out records and the frozen negatives;
* ``negatives_digest`` -- the fingerprint ``gbrec prepare`` and ``gbrec
  evaluate`` print, which casts each row of the narrow ids to int64;
* one stage per file of ``save_split_dir``, each written by its own writer,
  then ``save_split_dir`` as a whole;
* ``load_split_dir`` (as ``gbrec train`` and ``gbrec evaluate`` read the
  split dir) and ``load_train_dir`` (as ``gbrec recommend`` does).

The world is made once, by ``gbrec synth`` in a child process, so this
process's ``VmHWM`` (peak resident memory, read from ``/proc/self/status``
after each stage) covers these stages alone; being a high-water mark, it
shows a load stage's own peak only where that rises above prepare's. Prints the
best of ``--repeats`` times for each stage, the ``VmHWM`` after it, and the
size and sha256 of every file ``save_split_dir`` writes, so two checkouts can
be compared for speed, size and output. The world shape is given as to
``bench_synth.py`` (world seed 0); the default is the gbmf-wide benchmark
world, and ``--num-users 500 --num-items 200 --num-records 20000`` is the
gbgcn-desk shape. Usage::

    python3 benchmarks/bench_prepare.py [--num-users 3000] [--num-items 1200] [--num-records 24000]
                                        [--mean-friends 8.0] [--item-temp 0.05] [--seed 0]
                                        [--negatives 999] [--repeats 7]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time

from gbrec.data import DEFAULT_EVAL_NEGATIVES, SPLIT_FILE, load_split_dir, load_train_dir, write_npz
from gbrec.evaluate import negatives_digest
from gbrec.rawdata import (
    _split_arrays,
    ingest,
    save_split_dir,
    split_leave_one_out,
    write_behaviors,
    write_id_map,
    write_negatives,
    write_social,
)

SHAPE = ("num_users", "num_items", "num_records", "mean_friends", "item_temp")


def vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return float("nan")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--num-users", type=int, default=3000)
    ap.add_argument("--num-items", type=int, default=1200)
    ap.add_argument("--num-records", type=int, default=24_000)
    ap.add_argument("--mean-friends", type=float, default=8.0)
    ap.add_argument("--item-temp", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0, help="split seed")
    ap.add_argument("--negatives", type=int, default=DEFAULT_EVAL_NEGATIVES)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()

    rows = []

    def stage(name, fn):
        best, out = float("inf"), None
        for _ in range(args.repeats):
            out = None  # one result alive at a time
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
        rows.append((name, best, vm_hwm_mb()))
        return out

    with tempfile.TemporaryDirectory() as tmp:
        raw, outdir = os.path.join(tmp, "raw"), os.path.join(tmp, "data")
        subprocess.run(
            [sys.executable, "-m", "gbrec.cli", "synth", "--outdir", raw, "--seed", "0", "--latent-dim", "8",
             *(a for key in SHAPE for a in (f"--{key.replace('_', '-')}", str(getattr(args, key))))],
            check=True, stdout=subprocess.DEVNULL,
        )
        start = vm_hwm_mb()
        behaviors, social_path = os.path.join(raw, "behaviors.tsv"), os.path.join(raw, "social.tsv")
        logb, social, stats = stage("ingest", lambda: ingest(behaviors, social_path))
        split = stage("split_leave_one_out", lambda: split_leave_one_out(logb, args.seed, args.negatives))
        stage("negatives_digest", lambda: negatives_digest(split.eval_negatives))
        os.makedirs(outdir)
        path = lambda name: os.path.join(outdir, name)  # noqa: E731
        stage(SPLIT_FILE, lambda: write_npz(path(SPLIT_FILE), _split_arrays(split, social)))
        for name in ("train", "validation", "test"):
            stage(f"{name}.tsv", lambda name=name: write_behaviors(path(f"{name}.tsv"), getattr(split, name)))
        stage("social.tsv", lambda: write_social(path("social.tsv"), social))
        stage("negatives.tsv", lambda: write_negatives(path("negatives.tsv"), split.eval_negatives))
        stage("users.tsv", lambda: write_id_map(path("users.tsv"), stats.user_ids))
        stage("items.tsv", lambda: write_id_map(path("items.tsv"), stats.item_ids))
        stage("save_split_dir", lambda: save_split_dir(outdir, split, social, stats, args.seed))
        stage("load_split_dir", lambda: load_split_dir(outdir))
        stage("load_train_dir", lambda: load_train_dir(outdir))
        files = {}
        for name in sorted(os.listdir(outdir)):
            with open(path(name), "rb") as fh:
                body = fh.read()
            files[name] = len(body), hashlib.sha256(body).hexdigest()

    print(
        f"users={logb.num_users} items={logb.num_items} records={len(logb)} "
        f"split_seed={args.seed} negatives={args.negatives} test_users={len(split.test)} "
        f"vm_hwm_start={start:.1f} MB"
    )
    for name, best, peak in rows:
        print(f"{name:20s} {best * 1e3:9.2f} ms  VmHWM {peak:6.1f} MB")
    for name, (size, digest) in files.items():
        print(f"{name:16s} {size:10d} B  sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
