"""End-to-end benchmark of the gbrec pipeline: synth -> prepare -> train -> evaluate -> recommend.

Run from the repository root::

    python3 gbbench/run.py --workload gbgcn-desk --seed 0 --seconds 20 --trace 0

Each step is one ``gbrec`` command in a fresh process, started one after
another from this process: a closed loop with a single client. Every step is
timed from outside and every output is checked (see ``checks.py``). The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` (the measured run): whole rounds repeat until ``--seconds``
have passed, at least one round. A round is ``BLOCKS`` passes of the
pipeline: synth (the set-up), prepare (repeated when it is shorter than about
a second), train, evaluate, recommend. Every step, set-up included, thus has
samples spread over the round, rather than bunched in one stretch of the
machine's load. Each end-to-end metric is the median of its samples.

``--trace 1`` (the traced run): ``TRACE_PASSES`` passes, each running every
step twice back to back, once plainly and once through ``tracer.py``, the
traced one second in even passes and first in odd ones. Per-layer metrics
are self times and counts of the traced steps, the median over the passes;
the tracing overhead is the median of the per-step traced/plain wall-time
ratios. No loop runs for ``--seconds``.

A workload is one world: the generator seed and the split seed are part of
its definition, as in the acceptance tests' planted worlds. ``--seed`` is
the training seed and draws the test users asked for recommendations, so
``test_ndcg10`` varies with it only through training. Work files go to ``gbbench/work`` and are removed
after a passing run; run records and traces go to ``gbbench/out``.
"""

from __future__ import annotations

import os

# Hold BLAS/OpenMP pools to one thread here and in every child, so library
# threads do not compete with the pipeline for the machine's cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GBREC_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
TESTS_DIR = os.path.join(ROOT, "tests")
WORK_DIR = os.path.join(BENCH_DIR, "work")
OUT_DIR = os.path.join(BENCH_DIR, "out")
TRACER = os.path.join(BENCH_DIR, "tracer.py")
SPAWNER = os.path.join(BENCH_DIR, "spawner.py")
STEP_TIMEOUT_S = 150.0
RECOMMEND_K = 10
NUM_NEGATIVES = 999
BLOCKS = 3  # pipeline passes per round, each starting with one generator run (set-up)
TRACE_PASSES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    world_seed: int    # seed of the generator and of the split
    synth: dict        # generator flags (SynthConfig fields)
    model: str
    train: dict        # training flags (Hyperparams fields)
    prepare_reps: int  # per block; short steps repeat, and the median is reported

    @property
    def epochs(self) -> int:
        return self.train["pretrain_epochs"] + self.train["epochs"]


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-07 planted world with full GBGCN: graph propagation and its
        # backward pass dominate; the generator, split and ranking are small.
        Workload(
            name="gbgcn-desk",
            world_seed=0,
            synth=dict(num_users=500, num_items=200, latent_dim=8, num_records=20_000,
                       mean_friends=8.0, role_correlation=0.0, launch_social_mix=0.7),
            model="gbgcn",
            train=dict(dim=16, num_layers=2, alpha=0.6, beta=0.05, neg_ratio=1, batch_size=10_000,
                       pretrain_epochs=4, pretrain_lr=0.1, epochs=1, finetune_lr=3e-3),
            prepare_reps=2,
        ),
        # Wide, sparse world with the propagation-free gbmf scorer and several
        # negatives per launch: per-record Python loops, 999-item negative
        # lists, term expansion and the scatter side of the kernels dominate.
        # A sharp item temperature keeps test ndcg well above random, so it
        # stays steady across seeds.
        Workload(
            name="gbmf-wide",
            world_seed=0,
            synth=dict(num_users=3000, num_items=1200, latent_dim=8, num_records=24_000,
                       mean_friends=8.0, item_temp=0.05),
            model="gbmf",
            train=dict(dim=16, alpha=0.6, beta=0.05, neg_ratio=3, batch_size=4096,
                       pretrain_epochs=1, pretrain_lr=5e-2, epochs=1, finetune_lr=5e-2),
            prepare_reps=1,
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "setup_rss_mb": "MB",
    "prepare_s": "s",
    "train_records_per_s": "records/s",
    "evaluate_s": "s",
    "recommend_s": "s",
    "test_ndcg10": "1",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "synthetic.build_planted_s": ("synthetic.build_planted",),
    "synthetic.simulate_s": ("synthetic.simulate",),
    "data.ingest_s": ("data.ingest",),
    "data.split_leave_one_out_s": ("data.split_leave_one_out",),
    "data.save_split_dir_s": ("data.save_split_dir",),
    "data.load_split_dir_s": ("data.load_split_dir",),
    "data.user_interactions_s": ("data.user_interactions",),
    "data.sample_negatives_s": ("data.sample_negatives",),
    "graphs.build_graphs_s": ("graphs.build_graphs",),
    "kernels.segment_mean_s": ("kernels.segment_mean",),
    "kernels.segment_sum_s": ("kernels.segment_sum",),
    "kernels.scatter_add_rows_s": ("kernels.scatter_add_rows",),
    "model.forward_s": ("model.forward",),
    "model.backward_s": ("model.backward",),
    "model.flat_embeddings_s": ("model.flat_embeddings",),
    "model.flat_backward_s": ("model.flat_backward",),
    "model.score_pairs_backward_s": ("model.score_pairs_backward", "model.score_pairs_join_view_backward"),
    "model.score_items_s": ("model.score_items",),
    "loss.build_terms_s": ("loss.build_terms",),
    "loss.score_terms_s": ("loss.score_terms",),
    "loss.loss_terms_backward_s": ("loss.loss_terms_backward",),
    "loss.breakdown_from_terms_s": ("loss.breakdown_from_terms",),
    "loss.regularizer_grads_s": ("loss.regularizer_grads",),
    "trainer.optimizer_step_s": ("trainer.optimizer_step",),
    "trainer.validation_s": ("trainer.validation",),
    "trainer.save_checkpoint_s": ("trainer.save_checkpoint",),
    "trainer.load_checkpoint_s": ("trainer.load_checkpoint",),
    "trainer.self_s": ("trainer.train_model", "trainer.loss_and_grads"),
    "evaluate.evaluate_ranking_s": ("evaluate.evaluate_ranking",),
    "cli.self_s": ("cli.main",),
}
# per-layer metric -> span name whose calls it counts
CALL_METRICS = {
    "data.load_split_dir_calls": "data.load_split_dir",
    "graphs.build_graphs_calls": "graphs.build_graphs",
    "kernels.segment_mean_calls": "kernels.segment_mean",
    "kernels.segment_sum_calls": "kernels.segment_sum",
    "kernels.scatter_add_rows_calls": "kernels.scatter_add_rows",
    "model.score_items_calls": "model.score_items",
    "trainer.batches": "trainer.loss_and_grads",
}
# counts the tracer adds up at the call boundaries
COUNT_METRICS = ("kernels.gathered_rows", "kernels.scattered_rows", "loss.terms", "evaluate.users_ranked")
COMMANDS = ("synth", "prepare", "train", "evaluate", "recommend")


class StepFailed(Exception):
    """A gbrec command exited with a non-zero code or was killed."""


@dataclass
class Step:
    command: str
    wall_s: float
    rss_mb: float
    stdout: str
    trace: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def source_digest() -> str:
    """Fingerprint of the library source, to key the training-hash record."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC_DIR, "gbrec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Spawner:
    """Runs commands through ``spawner.py``, started while this process is small."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, SPAWNER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def run(self, argv: list[str], env: dict, stdout: str, stderr: str) -> dict:
        request = {"argv": argv, "env": env, "cwd": ROOT, "stdout": stdout, "stderr": stderr,
                   "timeout_s": STEP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise StepFailed("the step spawner exited")
        return json.loads(answer)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def flags(values: dict) -> list[str]:
    return [a for key, value in values.items() for a in ("--" + key.replace("_", "-"), str(value))]


class Pipeline:
    """Starts gbrec commands for one workload and checks what they produce."""

    def __init__(self, wl: Workload, seed: int, workdir: str, tally: Tally, traced: bool, trace_dir: str,
                 spawner: Spawner):
        self.wl, self.seed, self.workdir, self.tally, self.spawner = wl, seed, workdir, tally, spawner
        self.traced, self.trace_dir = traced, trace_dir
        self.env = dict(os.environ)
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC_DIR + (os.pathsep + path if path else "")
        self.env["PYTHONHASHSEED"] = "0"
        self.labels: dict[str, int] = {}
        self.raw = os.path.join(workdir, "raw")
        self.data = os.path.join(workdir, "data")
        self.run_dir = os.path.join(workdir, "run")
        self._scorer = None
        self.step_s = 0.0  # wall time spent inside gbrec steps

    def gbrec(self, command: str, *args: str) -> Step:
        n = self.labels[command] = self.labels.get(command, 0) + 1
        label = f"{command}-{n}"
        log_base = os.path.join(self.workdir, label)
        if self.traced:
            spans_path = os.path.join(self.trace_dir, label + ".json")
            cmd = [sys.executable, TRACER, spans_path, command, *args]
        else:
            cmd = [sys.executable, "-m", "gbrec.cli", command, *args]
        self.tally.attempted += 1
        done = self.spawner.run(cmd, self.env, log_base + ".out", log_base + ".err")
        self.step_s += done["wall_s"]
        if done["returncode"] != 0:
            self.tally.failed += 1
            with open(log_base + ".err", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise StepFailed(f"gbrec {command} {' '.join(args)} exited {done['returncode']}:\n{tail}")
        with open(log_base + ".out", encoding="utf-8") as fh:
            stdout = fh.read()
        trace = None
        if self.traced:
            with open(spans_path, encoding="utf-8") as fh:
                trace = json.load(fh)
        return Step(command, done["wall_s"], done["maxrss_kb"] / 1024.0, stdout, trace)

    def check(self, fn, *args):
        """Run one output check; a failure is counted, reported, and not fatal.

        An output that cannot be read at all (a missing file, a missing key,
        a malformed number) fails its check too.
        """
        try:
            return fn(*args)
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            self.tally.failed += 1
            self.tally.problems.append(str(exc))
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            return None

    # -- steps ---------------------------------------------------------------

    def synth(self) -> Step:
        shutil.rmtree(self.raw, ignore_errors=True)
        return self.gbrec("synth", "--outdir", self.raw, "--seed", str(self.wl.world_seed), *flags(self.wl.synth))

    def prepare(self) -> Step:
        shutil.rmtree(self.data, ignore_errors=True)
        return self.gbrec(
            "prepare", os.path.join(self.raw, "behaviors.tsv"), os.path.join(self.raw, "social.tsv"),
            "--outdir", self.data, "--seed", str(self.wl.world_seed), "--negatives", str(NUM_NEGATIVES),
        )

    def train(self) -> Step:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        return self.gbrec(
            "train", "--data", self.data, "--outdir", self.run_dir, "--model", self.wl.model,
            "--seed", str(self.seed), *flags(self.wl.train),
        )

    def evaluate(self) -> Step:
        return self.gbrec(
            "evaluate", "--checkpoint", os.path.join(self.run_dir, "checkpoint.bin"),
            "--data", self.data, "--ks", str(checks.EVAL_K),
        )

    def recommend(self, user: int) -> Step:
        return self.gbrec(
            "recommend", "--checkpoint", os.path.join(self.run_dir, "checkpoint.bin"),
            "--data", self.data, "--user", str(user), "--k", str(RECOMMEND_K),
        )

    # -- checked sequences ---------------------------------------------------

    def same_output(self, steps: list[Step]) -> None:
        for s in steps[1:]:
            if s.stdout != steps[0].stdout:
                self.check(_raise, f"{s.command}: output differs between repeats of one input")

    def checked_synth(self) -> tuple[Step, dict]:
        step = self.synth()
        counters = self.check(checks.check_synth, step.stdout, os.path.join(self.raw, "behaviors.tsv"))
        if counters is None:
            raise StepFailed("the generator's output failed its check; nothing to prepare")
        return step, counters

    def checked_prepare(self, reps: int, counters: dict) -> tuple[list[Step], dict]:
        steps = [self.prepare() for _ in range(reps)]
        self.same_output(steps)
        info = self.check(
            checks.check_prepare, steps[0].stdout, os.path.join(self.raw, "behaviors.tsv"),
            self.data, counters, NUM_NEGATIVES,
        )
        if info is None:
            raise StepFailed("the split failed its check; nothing to train on")
        return steps, info

    def checked_train(self, hashes: "HashRecord") -> tuple[Step, str]:
        step = self.train()
        info = self.check(checks.check_train, step.stdout, self.wl.epochs)
        if info is None:
            raise StepFailed("training output failed its check")
        self.check(hashes.agree, self.wl, self.seed, info["hash"])
        return step, info["hash"]

    def checked_evaluate(self, scorer) -> tuple[Step, float | None]:
        """The evaluate step and its checked ndcg@10, None when the check failed."""
        step = self.evaluate()
        return step, self.check(checks.check_evaluate, step.stdout, scorer, self.data)

    def checked_recommend(self, user: int, scorer) -> Step:
        step = self.recommend(user)
        self.check(checks.check_recommend, step.stdout, user, scorer, RECOMMEND_K)
        return step

    def scorer(self, counters: dict):
        """The reference scorer of the current checkpoint, rebuilt when its bytes change."""
        path = os.path.join(self.run_dir, "checkpoint.bin")
        with open(path, "rb") as fh:
            key = hashlib.sha256(fh.read()).hexdigest()
        if self._scorer is None or self._scorer[0] != key:
            self._scorer = (key, checks.ReferenceScorer(
                path, self.data, counters["num_users"], counters["num_items"], TESTS_DIR,
            ))
        return self._scorer[1]


def _raise(message: str):
    raise checks.CheckFailed(message)


class HashRecord:
    """Training-log hashes per (workload definition, seed, library source) across runs.

    Every run of one commit on one seed must print the same hash, whether
    traced or not and whichever round it came from.
    """

    def __init__(self, path: str):
        self.path = path
        self.digest = source_digest()
        try:
            with open(path, encoding="utf-8") as fh:
                self.seen = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            self.seen = {}

    def agree(self, wl: Workload, seed: int, log_hash: str) -> None:
        definition = hashlib.sha256(repr(wl).encode()).hexdigest()[:16]
        key = f"{wl.name}:{definition}:{seed}:{self.digest}"
        first = self.seen.setdefault(key, log_hash)
        if first != log_hash:
            raise checks.CheckFailed(f"train: training_log_hash {log_hash} differs from {first} on the same commit and seed")

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.seen, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def draw_users(seed: int, test_users: list[int], n: int) -> list[int]:
    """The test users asked for recommendations, drawn by the run's seed."""
    rng = np.random.default_rng([seed, 1])
    return [int(u) for u in rng.choice(np.asarray(test_users), size=min(n, len(test_users)), replace=False)]


def median(values: list[float]) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# the measured run


def measured_run(pipe: Pipeline, seconds: float, hashes: HashRecord) -> tuple[dict, dict]:
    wl = pipe.wl
    samples: dict[str, list] = {k: [] for k in ("setup", "prepare", "train", "evaluate", "recommend", "rss")}
    evaluates: list[Step] = []
    ndcgs: list[float] = []
    hashes_seen = set()
    rounds = 0
    t_start = time.perf_counter()
    while True:
        for block in range(BLOCKS):
            synth, counters = pipe.checked_synth()
            prepare, info = pipe.checked_prepare(wl.prepare_reps, counters)
            train, log_hash = pipe.checked_train(hashes)
            hashes_seen.add(log_hash)
            scorer = pipe.scorer(counters)
            evaluate, ndcg = pipe.checked_evaluate(scorer)
            evaluates.append(evaluate)
            if ndcg is not None:
                ndcgs.append(ndcg)
            recommend = pipe.checked_recommend(draw_users(pipe.seed, info["test_users"], BLOCKS)[block], scorer)
            samples["setup"].append(synth)
            samples["prepare"] += [s.wall_s for s in prepare]
            samples["train"].append(wl.epochs * info["train_records"] / train.wall_s)
            samples["evaluate"].append(evaluate.wall_s)
            samples["recommend"].append(recommend.wall_s)
            samples["rss"] += [(s.command, s.rss_mb) for s in prepare + [train, evaluate, recommend]]
        rounds += 1
        if time.perf_counter() - t_start >= seconds:
            break
    pipe.same_output(samples["setup"])
    pipe.same_output(evaluates)
    metrics = {
        "setup_s": median([s.wall_s for s in samples["setup"]]),
        "setup_rss_mb": median([s.rss_mb for s in samples["setup"]]),
        "prepare_s": median(samples["prepare"]),
        "train_records_per_s": median(samples["train"]),
        "evaluate_s": median(samples["evaluate"]),
        "recommend_s": median(samples["recommend"]),
        "peak_rss_mb": max(rss for _command, rss in samples["rss"]),
    }
    if ndcgs:  # every evaluate printed the same report, so any checked one will do
        metrics["test_ndcg10"] = ndcgs[0]
    detail = {
        "rounds": rounds,
        "measured_s": time.perf_counter() - t_start,
        "step_s": pipe.step_s,
        "training_log_hashes": sorted(hashes_seen),
        "samples": {
            "setup_s": [s.wall_s for s in samples["setup"]],
            "setup_rss_mb": [s.rss_mb for s in samples["setup"]],
            "prepare_s": samples["prepare"],
            "train_records_per_s": samples["train"],
            "evaluate_s": samples["evaluate"],
            "recommend_s": samples["recommend"],
            "rss_mb": samples["rss"],
        },
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# the traced run


def self_times(trace: dict) -> tuple[dict, dict, float]:
    """Self time and call count per span name, and the top-level library time."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        selfs[name] = selfs.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0 and spans[parent][0] == "cli.main":
            covered += end - start
    return selfs, calls, covered


def traced_pass(plain: Pipeline, traced: Pipeline, hashes: HashRecord, traced_first: bool) -> tuple[list, list]:
    """Each step once without and once with tracing, back to back; returns the two step lists."""

    def both(fn):
        first, second = (traced, plain) if traced_first else (plain, traced)
        a, b = fn(first), fn(second)
        return (b, a) if traced_first else (a, b)

    (synth_a, counters), (synth_b, counters_b) = both(lambda p: p.checked_synth())
    if counters_b != counters:
        traced.check(_raise, "synth: tracing changed the generator's counters")
    (prepare_a, info), (prepare_b, _) = both(lambda p: p.checked_prepare(1, counters))
    train_a, train_b = both(lambda p: p.checked_train(hashes)[0])
    evaluate_a, evaluate_b = both(lambda p: p.checked_evaluate(p.scorer(counters))[0])
    user = draw_users(plain.seed, info["test_users"], BLOCKS)[0]
    recommend_a, recommend_b = both(lambda p: p.checked_recommend(user, p.scorer(counters)))
    a = [synth_a, *prepare_a, train_a, evaluate_a, recommend_a]
    b = [synth_b, *prepare_b, train_b, evaluate_b, recommend_b]
    for sa, sb in zip(a, b):
        if sa.command in ("prepare", "evaluate", "recommend") and sa.stdout != sb.stdout:
            traced.check(_raise, f"{sa.command}: tracing changed the output")
    return a, b


def layer_metrics(steps: list[Step]) -> tuple[dict, dict, dict]:
    """Per-layer metrics of one traced pass, with self time and calls per span."""
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    uncovered = {c: 0.0 for c in COMMANDS}
    startup = 0.0
    for step in steps:
        s, c, covered = self_times(step.trace)
        for k, v in s.items():
            selfs[k] = selfs.get(k, 0.0) + v
        for k, v in c.items():
            calls[k] = calls.get(k, 0) + v
        for k, v in step.trace["counts"].items():
            counts[k] = counts.get(k, 0) + v
        uncovered[step.command] += step.wall_s - covered
        startup += step.trace["main_start"] - step.trace["spawn"]

    metrics: dict[str, float] = {}
    for name, spans in SELF_TIME_METRICS.items():
        metrics[name] = sum(selfs.get(s, 0.0) for s in spans)
    for name, span in CALL_METRICS.items():
        metrics[name] = calls.get(span, 0)
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    metrics["cli.startup_s"] = startup
    for command in COMMANDS:
        metrics[f"{command}.uncovered_s"] = uncovered[command]
    return metrics, selfs, calls


def traced_run(plain: Pipeline, traced: Pipeline, hashes: HashRecord) -> tuple[dict, dict]:
    """``TRACE_PASSES`` traced passes; medians of their layer metrics, and the tracing overhead."""
    passes = [traced_pass(plain, traced, hashes, traced_first=i % 2 == 1) for i in range(TRACE_PASSES)]
    per_pass = [layer_metrics(b) for _a, b in passes]
    # an odd number of passes, so a count's median is one of its (equal) values, still a whole number
    metrics = {name: statistics.median([m[name] for m, _s, _c in per_pass]) for name in per_pass[0][0]}
    for name in (*CALL_METRICS, *COUNT_METRICS):
        if len({m[name] for m, _s, _c in per_pass}) > 1:
            traced.check(_raise, f"trace: {name} differs between passes of one seed")
    # Each ratio compares two back-to-back runs of one step, so a slow drift
    # of the host's speed cancels; the median drops the odd disturbed step.
    ratios = [sb.wall_s / sa.wall_s for a, b in passes for sa, sb in zip(a, b)]
    metrics["trace.overhead_pct"] = 100.0 * (median(ratios) - 1.0)
    detail = {
        "per_step_wall_s": [[[sa.command, sa.wall_s, sb.wall_s] for sa, sb in zip(a, b)] for a, b in passes],
        "overhead_ratios": ratios,
        "self_s_by_span": dict(sorted(per_pass[0][1].items(), key=lambda kv: -kv[1])),
        "calls_by_span": per_pass[0][2],
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# entry point


def environment() -> dict:
    from gbrec import kernels

    blas = None
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "kernels_backend": kernels.backend_name(),
        "nproc": os.cpu_count(),
    }


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "gbrec", "cli.py")):
        print(f"error: no gbrec sources under {SRC_DIR}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)

    wl = WORKLOADS[args.workload]
    env = environment()
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace, "environment": env}))
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"{wl.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    trace_dir = os.path.join(OUT_DIR, "traces", f"{wl.name}-s{args.seed}")
    hashes = HashRecord(os.path.join(OUT_DIR, "train_hashes.json"))
    tally = Tally()

    metrics: dict = {}
    detail: dict = {}
    units: dict = {}
    code = 0
    spawner = Spawner()
    try:
        # untimed warm-up: writes bytecode caches once, so no timed step pays it
        warm = os.path.join(workdir, "warm-up")
        if spawner.run([sys.executable, "-m", "gbrec.cli", "--version"], dict(os.environ, PYTHONPATH=SRC_DIR),
                       warm + ".out", warm + ".err")["returncode"] != 0:
            raise StepFailed("gbrec --version failed")
        if args.trace:
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            plain = Pipeline(wl, args.seed, os.path.join(workdir, "plain"), tally, False, trace_dir, spawner)
            traced = Pipeline(wl, args.seed, os.path.join(workdir, "traced"), tally, True, trace_dir, spawner)
            os.makedirs(plain.workdir)
            os.makedirs(traced.workdir)
            metrics, detail = traced_run(plain, traced, hashes)
            units = {name: per_layer_units(name) for name in metrics}
        else:
            pipe = Pipeline(wl, args.seed, workdir, tally, False, trace_dir, spawner)
            metrics, detail = measured_run(pipe, args.seconds, hashes)
            units = END_TO_END_UNITS
    except StepFailed as exc:
        print(f"STEP FAILED: {exc}", file=sys.stderr)
        tally.problems.append(str(exc))
        metrics = {}
        code = 1
    except (OSError, KeyError, ValueError) as exc:
        # an output the benchmark could not read: the operation behind it failed
        print(f"STEP FAILED: unreadable output: {exc!r}", file=sys.stderr)
        tally.problems.append(repr(exc))
        tally.failed += 1
        tally.attempted = max(tally.attempted, tally.failed)
        metrics = {}
        code = 1
    finally:
        spawner.close()
    hashes.save()

    correct = code == 0 and not tally.problems
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "source_digest": hashes.digest, "correct": correct,
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
        "metrics": metrics, "detail": detail,
    }
    with open(os.path.join(OUT_DIR, f"{wl.name}-s{args.seed}-t{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6f} {units.get(name, '')}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
