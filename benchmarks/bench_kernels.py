"""Timing of the one reduction kernel in the four roles training uses.

* ``segment_sum`` -- a neighbour sum over a synthetic CSR graph, the
  propagation step and each mean's adjoint;
* ``scatter`` -- a plain scatter of given rows into destination rows;
* ``gap_user_side`` -- the user side of the score gap's backward pass: one
  call that scatters ``scale[i] * (table[lo[i]] - table[hi[i]])`` into several
  targets sharing the index ``users``, gathering both rows, subtracting and
  scaling each column block inside the kernel;
* ``gap_item_side`` -- its item side: one call that gathers
  ``scale[i] * table[users[i]]`` once per column block, adds it at ``lo[i]``
  and subtracts it at ``hi[i]``, for several targets.

Prints the best of ``--repeats`` per-call times for each role, with the
kernel's block width ``kernels.BLOCK``. Usage::

    python3 benchmarks/bench_kernels.py [--rows 200000] [--degree 20] [--dim 32]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from gbrec import kernels


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=200_000)
    ap.add_argument("--cols", type=int, default=30_000)
    ap.add_argument("--degree", type=float, default=20.0)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--terms", type=int, default=500_000, help="rows of each scatter")
    ap.add_argument("--targets", type=int, default=4, help="targets of each gap-side call")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
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
        f"terms={args.terms} targets={args.targets} block={kernels.BLOCK}"
    )
    roles = {
        "segment_sum": lambda: kernels.segment_sum(indptr, indices, src),
        "scatter": lambda: kernels.scatter_add_rows([(user_rows[0], rows, None)], idx),
        "gap_user_side": lambda: kernels.scatter_add_rows(
            [(out, table, scale) for out, table in zip(user_rows, item_tables)], idx, lo, minus_gather=hi
        ),
        "gap_item_side": lambda: kernels.scatter_add_rows(
            [(out, table, scale) for out, table in zip(item_rows, user_tables)], lo, idx, minus_idx=hi
        ),
    }
    for name, fn in roles.items():
        print(f"{name:<17} {best_of(fn, args.repeats) * 1e3:8.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
