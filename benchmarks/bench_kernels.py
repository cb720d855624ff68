"""Timing of the products training runs, in the roles training uses them.

* ``segment_sum`` -- a neighbour sum over a synthetic CSR graph, the
  propagation step and each mean's adjoint;
* ``scatter`` -- a plain scatter of given rows into destination rows;
* ``gap_user_side`` -- the user side of the score gap's backward pass: one
  call that scatters ``scale[i] * (table[lo[i]] - table[hi[i]])`` into several
  targets sharing the index ``users``, gathering both rows, subtracting and
  scaling each column inside the kernel;
* ``gap_item_side`` -- its item side: one call that gathers
  ``scale[i] * table[users[i]]`` once per column, adds it at ``lo[i]``
  and subtracts it at ``hi[i]``, for several targets;
* ``mean`` -- ``CSR.mean`` and ``CSR.mean_adjoint`` of a ``--rows`` x
  ``--cols`` graph with ``--entries`` stored entries, on the sparse path and
  on the dense one (skipped past ``DENSE_LIMIT`` cells), with the path
  ``CSR.runs_dense`` picks;
* ``score_pass`` -- ``EmbeddingSet.score_gaps`` and ``score_pairs_backward``
  over ``--terms`` random terms of ``--users`` x ``--items``, on both paths,
  with the path ``EmbeddingSet.dense_score_pass`` picks. The set is built
  over a random social graph of 8 friends per user on average. With
  ``--blocks 1`` it is the flat scorer gbmf trains, built by
  ``flat_embeddings``: one query block of width ``--dim``. With more blocks
  it is GBGCN's scorer, built by ``composite_embeddings`` with that many
  blocks of width ``--dim`` per view slot: twice that many query blocks, the
  launch blocks and the friend means;
* ``rank`` -- ``evaluate.evaluate_ranking``, the ranking of ``gbrec evaluate``
  and of each fine-tune epoch's validation, over ``--users`` held-out users of
  ``--items`` items, each with ``min(999, --items - 1)`` distinct frozen
  negatives (its test item left out) held in ``data.item_dtype(--items)``,
  scored by a ``flat_embeddings`` set of width ``--dim``. ``--users 3000
  --items 1200`` is the gbmf-wide shape.

The first four roles time the sparse kernel alone, and ``rank`` times the
one path there is. Prints the best of ``--repeats`` per-call times for each
role; tables are float32, as in training. Usage::

    python3 benchmarks/bench_kernels.py [--role ROLE ...] [--rows 200000] [--cols 30000]
        [--degree 20 | --entries N] [--dim 32] [--terms 500000]
        [--users 500] [--items 200] [--blocks 2]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from gbrec import kernels, scoring
from gbrec.data import BehaviorLog, SocialGraph, item_dtype
from gbrec.evaluate import evaluate_ranking

# the test suite's switch between the sparse and the dense products
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
from conftest import forced_products  # noqa: E402

ROLES = ("segment_sum", "scatter", "gap_user_side", "gap_item_side", "mean", "score_pass", "rank")
DENSE_LIMIT = 1 << 24  # cells past which the mean role times no dense matrix (64 MB in float32)


def make_csr(rng: np.random.Generator, num_rows: int, num_cols: int, avg_degree: float):
    nnz = int(num_rows * avg_degree)
    rows = rng.integers(0, num_rows, size=nnz)
    cols = rng.integers(0, num_cols, size=nnz).astype(np.int64)
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    return indptr, cols


def best_of(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def time_paths(name: str, fns: dict, picked: str, repeats: int, dense_ok: bool = True) -> None:
    """Print one line per function: its sparse time, its dense time and the path the rule picks."""
    for label, fn in fns.items():
        with forced_products("sparse"):
            sparse = f"{best_of(fn, repeats) * 1e3:8.2f} ms"
        dense = "skipped"
        if dense_ok:
            with forced_products("dense"):
                fn()  # builds and caches the dense matrix, as the first call of a run does
                dense = f"{best_of(fn, repeats) * 1e3:8.2f} ms"
        print(f"{name + '.' + label:<17} sparse {sparse}  dense {dense:>11}  picks {picked}")


def time_mean(args, rng) -> None:
    cells = args.rows * args.cols
    entries = args.entries if args.entries is not None else int(args.rows * args.degree)
    keys = rng.choice(cells, size=min(entries, cells), replace=False)
    g = kernels.CSR.from_edges(args.rows, args.cols, *np.divmod(keys, args.cols))
    src = rng.standard_normal((args.cols, args.dim)).astype(np.float32)
    d = rng.standard_normal((args.rows, args.dim)).astype(np.float32)
    print(
        f"mean: rows={args.rows} cols={args.cols} entries={g.indices.shape[0]} "
        f"fill={g.indices.shape[0] / cells:.4%} dim={args.dim} min_fill={kernels.DENSE_MIN_FILL:.4%} "
        f"max_cells={kernels.DENSE_MAX_CELLS}"
    )
    fns = {"mean": lambda: g.mean(src), "adjoint": lambda: g.mean_adjoint(d, np.float32)}
    time_paths("mean", fns, "dense" if g.runs_dense else "sparse", args.repeats, cells <= DENSE_LIMIT)


def time_score_pass(args, rng) -> None:
    P, Q, n = args.users, args.items, args.terms

    def blocks(rows):
        return [rng.standard_normal((rows, args.dim)).astype(np.float32) for _ in range(args.blocks)]

    social = SocialGraph.from_edges(P, rng.integers(0, P, size=(4 * P, 2)))
    if args.blocks == 1:
        emb = scoring.flat_embeddings(*blocks(P), *blocks(Q), social, alpha=0.6)
    else:
        emb = scoring.composite_embeddings(blocks(P), blocks(Q), blocks(P), blocks(Q), social, alpha=0.6)
    users, lo, hi = rng.integers(0, P, n), rng.integers(0, Q, n), rng.integers(0, Q, n)
    dgap = rng.random(n)
    adj = scoring.ScoreAdjoint.zeros(emb)
    print(
        f"score_pass: users={P} items={Q} terms={n} blocks={args.blocks} width={args.dim} "
        f"cells/terms={P * Q / n:.2f} ratio={scoring.SCORE_DENSE_RATIO}"
    )
    fns = {
        "gaps": lambda: emb.score_gaps(users, lo, hi),
        "backward": lambda: scoring.score_pairs_backward(emb, users, hi, lo, dgap, adj),
    }
    time_paths("score_pass", fns, "dense" if emb.dense_score_pass(n) else "sparse", args.repeats)


def time_rank(args, rng) -> None:
    P, Q = args.users, args.items
    k = min(999, Q - 1)
    social = SocialGraph.from_edges(P, rng.integers(0, P, size=(4 * P, 2)))
    emb = scoring.flat_embeddings(
        rng.standard_normal((P, args.dim)).astype(np.float32),
        rng.standard_normal((Q, args.dim)).astype(np.float32), social, alpha=0.6,
    )
    test = rng.integers(0, Q, size=P)
    # each user's k lowest random keys, its test item's key pushed past every other
    keys = rng.random((P, Q))
    keys[np.arange(P), test] = 2.0
    lists = np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)
    negatives = kernels.CSR(P, Q, np.arange(P + 1, dtype=np.int64) * k, lists.ravel().astype(item_dtype(Q)))
    records = BehaviorLog(np.arange(P), test, np.ones(P, dtype=bool), np.zeros(P + 1, dtype=np.int64),
                          np.empty(0, dtype=np.int64), P, Q)
    print(f"rank: users={P} items={Q} negatives={k} dtype={negatives.indices.dtype} width={args.dim}")
    fn = lambda: evaluate_ranking(emb.score_users, records, negatives, (10,))
    print(f"{'rank':<17} {best_of(fn, args.repeats) * 1e3:8.2f} ms")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", choices=ROLES, action="append", help="a role to time (repeatable; default every role)")
    ap.add_argument("--rows", type=int, default=200_000)
    ap.add_argument("--cols", type=int, default=30_000)
    ap.add_argument("--degree", type=float, default=20.0)
    ap.add_argument("--entries", type=int, default=None, help="stored entries of the mean role's graph (default rows * degree)")
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--terms", type=int, default=500_000, help="rows of each scatter, terms of the score pass")
    ap.add_argument("--targets", type=int, default=4, help="targets of each gap-side call")
    ap.add_argument("--users", type=int, default=500, help="users of the score pass and the ranking")
    ap.add_argument("--items", type=int, default=200, help="items of the score pass and the ranking")
    ap.add_argument("--blocks", type=int, default=2, help="embedding blocks of the score pass")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    roles = args.role or ROLES

    rng = np.random.default_rng(0)
    kernel_roles = [r for r in roles if r in ROLES[:4]]
    if kernel_roles:
        indptr, indices = make_csr(rng, args.rows, args.cols, args.degree)
        src = rng.standard_normal((args.cols, args.dim)).astype(np.float32)
        idx = rng.integers(0, args.rows, size=args.terms)
        rows = rng.standard_normal((args.terms, args.dim)).astype(np.float32)
        # each gap term scatters to a user row and gathers two item rows, or the reverse
        lo = rng.integers(0, args.cols, size=args.terms)
        hi = rng.integers(0, args.cols, size=args.terms)
        scale = rng.standard_normal(args.terms)
        user_rows = [np.zeros((args.rows, args.dim), dtype=np.float32) for _ in range(args.targets)]
        item_rows = [np.zeros((args.cols, args.dim), dtype=np.float32) for _ in range(args.targets)]
        item_tables = [rng.standard_normal((args.cols, args.dim)).astype(np.float32) for _ in range(args.targets)]
        user_tables = [rng.standard_normal((args.rows, args.dim)).astype(np.float32) for _ in range(args.targets)]

        print(
            f"rows={args.rows} cols={args.cols} nnz={indices.shape[0]} dim={args.dim} "
            f"terms={args.terms} targets={args.targets}"
        )
        fns = {
            "segment_sum": lambda: kernels.segment_sum(indptr, indices, src),
            "scatter": lambda: kernels.scatter_add_rows([(user_rows[0], rows, None)], idx),
            "gap_user_side": lambda: kernels.scatter_add_rows(
                [(out, table, scale) for out, table in zip(user_rows, item_tables)], idx, lo, minus_gather=hi
            ),
            "gap_item_side": lambda: kernels.scatter_add_rows(
                [(out, table, scale) for out, table in zip(item_rows, user_tables)], lo, idx, minus_idx=hi
            ),
        }
        for name in kernel_roles:
            print(f"{name:<17} {best_of(fns[name], args.repeats) * 1e3:8.2f} ms")
    if "mean" in roles:
        time_mean(args, rng)
    if "score_pass" in roles:
        time_score_pass(args, rng)
    if "rank" in roles:
        time_rank(args, rng)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
