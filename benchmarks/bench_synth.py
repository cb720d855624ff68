"""Timing of the synthetic world generator, stage by stage.

* ``build_planted`` -- the social graph, the latent vectors and the activity
  weights;
* ``simulate`` -- the launches: initiators, items and joins;
* ``write_behaviors`` -- the behavior log written as text.

Each stage starts from the same generator state on every repeat, so every
repeat makes the same world. Prints the best of ``--repeats`` times for each
stage and the sha256 of the written log, so two checkouts can be compared for
both speed and output. The default shape is the gbmf-wide benchmark world.
Usage::

    python3 benchmarks/bench_synth.py [--num-users 3000] [--num-items 1200] [--num-records 24000]
                                      [--mean-friends 8.0] [--item-temp 0.05] [--repeats 5]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import tempfile
import time

import numpy as np

from gbrec.config import SynthConfig
from gbrec.rawdata import write_behaviors
from gbrec.synthetic import build_planted, simulate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--num-users", type=int, default=3000)
    ap.add_argument("--num-items", type=int, default=1200)
    ap.add_argument("--num-records", type=int, default=24_000)
    ap.add_argument("--mean-friends", type=float, default=8.0)
    ap.add_argument("--item-temp", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    cfg = SynthConfig(num_users=args.num_users, num_items=args.num_items, num_records=args.num_records,
                      mean_friends=args.mean_friends, item_temp=args.item_temp)
    problems = cfg.validate()
    if problems:
        ap.error("; ".join(problems))

    best = {"build_planted": float("inf"), "simulate": float("inf"), "write_behaviors": float("inf")}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "behaviors.tsv")
        for _ in range(args.repeats):
            rng = np.random.default_rng(args.seed)
            t0 = time.perf_counter()
            planted = build_planted(cfg, rng)
            t1 = time.perf_counter()
            logb = simulate(planted, cfg, rng)
            t2 = time.perf_counter()
            write_behaviors(path, logb)
            t3 = time.perf_counter()
            for stage, dt in zip(best, (t1 - t0, t2 - t1, t3 - t2)):
                best[stage] = min(best[stage], dt)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()

    print(
        f"users={cfg.num_users} items={cfg.num_items} records={cfg.num_records} "
        f"mean_friends={cfg.mean_friends} item_temp={cfg.item_temp} seed={args.seed} "
        f"participants={logb.part_indices.shape[0]}"
    )
    for stage, dt in best.items():
        print(f"{stage:16s} {dt * 1e3:9.2f} ms")
    print(f"behaviors.tsv sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
