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



def run_benchmark(script, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCHMARKS, script), *args],
        capture_output=True, text=True, env=helpers.child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def timed(lines, stage):
    """Whether a line reports ``stage``'s time in milliseconds."""
    return any(line.split()[0] == stage and line.split()[2] == "ms" for line in lines if line.strip())


TINY_WORLD = ("--num-users", "40", "--num-items", "25", "--num-records", "400", "--repeats", "1")


def test_bench_prepare_times_every_stage():
    lines = run_benchmark("bench_prepare.py", *TINY_WORLD, "--negatives", "8")
    assert lines[0].startswith("users=40 items=25 records=400")
    for stage in ("ingest", "split_leave_one_out", "negatives_digest", "split.npz", "save_split_dir",
                  "load_split_dir", "load_train_dir"):
        assert timed(lines, stage), stage
    assert any(line.split()[0] == "split.npz" and "sha256" in line for line in lines)


def test_bench_synth_times_every_stage():
    lines = run_benchmark("bench_synth.py", *TINY_WORLD)
    assert lines[0].startswith("users=40 items=25 records=400")
    for stage in ("build_planted", "simulate", "write_behaviors"):
        assert timed(lines, stage), stage
    assert lines[-1].startswith("behaviors.tsv sha256")


def test_bench_startup_times_every_command():
    lines = run_benchmark("bench_startup.py", "--repeats", "1")
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["synth", "prepare", "train", "train", "evaluate", "evaluate",
                                        "recommend", "recommend"]
    assert all("cli" in row for row in rows)
