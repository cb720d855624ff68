"""Smoke tests of the timing scripts under ``benchmarks/``: each runs to the end at tiny shapes."""

import os
import subprocess
import sys

import pytest

import helpers

BENCHMARKS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmarks")


@pytest.mark.parametrize("blocks", [1, 2])  # the flat scorer, and GBGCN's
def test_bench_kernels_times_every_role(blocks):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCHMARKS, "bench_kernels.py"),
         "--users", "40", "--items", "25", "--terms", "2000", "--dim", "8", "--repeats", "1",
         "--blocks", str(blocks), "--rows", "300", "--cols", "200", "--degree", "5"],
        capture_output=True, text=True, env=helpers.child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert f"blocks={blocks}" in next(line for line in lines if line.startswith("score_pass:"))
    assert any(line.startswith("score_pass.backward") for line in lines)
    assert any(line.startswith("rank ") for line in lines)
