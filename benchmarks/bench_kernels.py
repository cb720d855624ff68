"""Timing comparison of the jit and pure-numpy kernel backends.

Each backend has one kernel. This runs it in the two roles training uses --
a segment sum over a synthetic CSR graph sized like a desk-scale training
run, and a scatter (the segment sum's transpose) -- and prints per-call
times plus the speedup. The jit path is warmed up before timing so
compilation cost is not counted. Usage::

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
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    indptr, indices = make_csr(rng, args.rows, args.cols, args.degree)
    src = rng.standard_normal((args.cols, args.dim)).astype(np.float32)
    idx = rng.integers(0, args.rows, size=indices.shape[0])
    rows = rng.standard_normal((indices.shape[0], args.dim)).astype(np.float32)

    print(f"rows={args.rows} cols={args.cols} nnz={indices.shape[0]} dim={args.dim}")
    print(f"available backends: {sorted(kernels.IMPLS)}")

    results: dict[str, dict[str, float]] = {}
    for backend, kernel in sorted(kernels.IMPLS.items()):
        if backend == "numba":

            def seg():
                kernel(indptr, indices, src, np.zeros((args.rows, args.dim), dtype=np.float64))

            def scat():
                t_indptr, order = kernels._transpose_index(idx, args.rows)
                kernel(t_indptr, order, rows, np.zeros((args.rows, args.dim), dtype=np.float64))

            # warm the jit cache before measuring
            seg()
            scat()
        else:

            def seg():
                dest = np.repeat(np.arange(args.rows, dtype=np.int64), np.diff(indptr))
                kernel(dest, src, args.rows, indices)

            def scat():
                kernel(idx, rows, args.rows)

        results[backend] = {
            "segment_sum": best_of(seg, args.repeats),
            "scatter_add_rows": best_of(scat, args.repeats),
        }
        for name, t in results[backend].items():
            print(f"{backend:>6} {name:<18} {t * 1e3:8.2f} ms")

    if {"numba", "numpy"} <= results.keys():
        for name in ("segment_sum", "scatter_add_rows"):
            speedup = results["numpy"][name] / results["numba"][name]
            print(f"speedup {name}: {speedup:.1f}x (jit over numpy)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
