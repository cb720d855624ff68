"""Start-up of each ``gbrec`` command: what it loads and what that costs.

On a tiny world (made here by ``gbrec synth`` and ``gbrec prepare``), each
command runs in a fresh process, as a user or the benchmark starts it. For
each it prints:

* ``wall`` -- the best of ``--repeats`` wall times of ``python3 -m
  gbrec.cli ...``, with BLAS at one thread. Each repeat runs every command
  once, so a command's samples are spread over the whole run;
* ``import self`` -- the sum of gbrec's own self times in ``python3 -X
  importtime``, the median of ``--repeats`` runs. The host's own settings
  apply: where ``PYTHONDONTWRITEBYTECODE`` is set, this includes compiling
  each module from source;
* ``modules`` -- the gbrec modules the command loaded.

The world is tiny, so the commands' own work is small and start-up is most of
each wall time. The runs use the gbrec under ``--src`` (default: this
checkout's ``src``) and import nothing from it here, so one copy of this file
can measure two checkouts. Usage::

    python3 benchmarks/bench_startup.py [--repeats 9] [--src PATH]
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SYNTH_ARGS = ["--num-users", "30", "--num-items", "12", "--num-records", "200", "--latent-dim", "4"]
TRAIN_ARGS = ["--dim", "4", "--pretrain-epochs", "1", "--epochs", "1", "--batch-size", "64"]
# runs one command and then prints the gbrec modules it loaded, on stderr
LOADED_MODULES = (
    "import sys\n"
    "from gbrec.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('modules', *sorted(m for m in sys.modules if m.split('.')[0] == 'gbrec'), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def commands(work: str) -> dict[str, list[str]]:
    raw, data = os.path.join(work, "raw"), os.path.join(work, "data")
    steps = {
        "synth": ["synth", "--outdir", raw, "--seed", "1", *SYNTH_ARGS],
        "prepare": ["prepare", os.path.join(raw, "behaviors.tsv"), os.path.join(raw, "social.tsv"),
                    "--outdir", data, "--negatives", "8"],
    }
    for model in ("gbgcn", "gbmf"):
        out = os.path.join(work, model)
        ckpt = os.path.join(out, "checkpoint.bin")
        steps[f"train {model}"] = ["train", "--data", data, "--outdir", out, "--model", model, *TRAIN_ARGS]
        steps[f"evaluate {model}"] = ["evaluate", "--data", data, "--checkpoint", ckpt]
        steps[f"recommend {model}"] = ["recommend", "--data", data, "--checkpoint", ckpt, "--user", "0"]
    order = ["synth", "prepare", "train gbgcn", "train gbmf", "evaluate gbgcn", "evaluate gbmf",
             "recommend gbgcn", "recommend gbmf"]
    return {name: steps[name] for name in order}


def run(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stderr}")
    return proc


def import_self_ms(stderr: str) -> float:
    """The sum of the ``self [us]`` column over gbrec's lines of an importtime log."""
    total = 0
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            self_us, _, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit() and name.strip().split(".")[0] == "gbrec":
                total += int(self_us)
    return total / 1e3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src directory of the gbrec to run")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")

    with tempfile.TemporaryDirectory() as work:
        steps = commands(work)
        walls = {name: [] for name in steps}
        imports = {name: [] for name in steps}
        loaded = {}
        # every repeat runs each command once, in pipeline order, so each
        # command's samples spread over the run, not over one stretch of the
        # host's load
        for _ in range(args.repeats):
            for name, argv in steps.items():
                t0 = time.perf_counter()
                run([sys.executable, "-m", "gbrec.cli", *argv], env)
                walls[name].append(time.perf_counter() - t0)
                proc = run([sys.executable, "-X", "importtime", "-c", LOADED_MODULES, *argv], env)
                imports[name].append(import_self_ms(proc.stderr))
                line = next(line for line in proc.stderr.splitlines() if line.startswith("modules "))
                loaded[name] = sorted(m.split(".", 1)[1] for m in line.split()[1:] if "." in m)

    print(f"src={os.path.abspath(args.src)} repeats={args.repeats}")
    print(f"{'command':<16} {'wall ms':>8} {'import self ms':>15}  modules")
    for name in steps:
        wall, imported = min(walls[name]) * 1e3, statistics.median(imports[name])
        print(f"{name:<16} {wall:8.1f} {imported:15.1f}  {' '.join(loaded[name])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
