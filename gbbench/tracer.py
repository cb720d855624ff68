"""Run one ``gbrec`` command with a span recorded around each public library call.

Usage::

    python3 gbbench/tracer.py SPANS_OUT <gbrec arguments...>

The benchmark's traced run starts every pipeline step through this file
instead of ``python3 -m gbrec.cli``. It wraps the public functions of the
gbrec modules from outside, so ``src/gbrec`` stays untouched, runs
``gbrec.cli.main`` with the remaining arguments, and when the command ends
writes every span (name, start, end, parent index) and every count to
SPANS_OUT as JSON. Spans live in memory until then.

Modules import each other's functions by name (``from .data import
sample_negatives`` in ``trainer``), so a wrapper replaces the binding in every
gbrec module that holds the original function. ``kernels`` functions are
looked up through the module, so rebinding the module attribute covers them.
A target the library no longer has is skipped; its metrics then read zero.

Times come from ``time.perf_counter``, the system-wide monotonic clock on
Linux, so they compare with the spawn time the parent passes in the
``GBBENCH_SPAWN_T`` environment variable.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, span name); "Class.method" names a method.
TARGETS = (
    ("config", "load_typed", "config.load_typed"),
    ("synthetic", "generate", "synthetic.generate"),
    ("synthetic", "build_planted", "synthetic.build_planted"),
    ("synthetic", "simulate", "synthetic.simulate"),
    ("data", "ingest", "data.ingest"),
    ("data", "split_leave_one_out", "data.split_leave_one_out"),
    ("data", "save_split_dir", "data.save_split_dir"),
    ("data", "load_split_dir", "data.load_split_dir"),
    ("data", "user_interactions", "data.user_interactions"),
    ("data", "sample_negatives", "data.sample_negatives"),
    ("graphs", "build_graphs", "graphs.build_graphs"),
    ("kernels", "segment_mean", "kernels.segment_mean"),
    ("kernels", "segment_sum", "kernels.segment_sum"),
    ("kernels", "scatter_add_rows", "kernels.scatter_add_rows"),
    ("model", "forward", "model.forward"),
    ("model", "backward", "model.backward"),
    ("model", "flat_embeddings", "model.flat_embeddings"),
    ("model", "flat_backward", "model.flat_backward"),
    ("model", "score_pairs_backward", "model.score_pairs_backward"),
    ("model", "score_pairs_join_view_backward", "model.score_pairs_join_view_backward"),
    ("model", "EmbeddingSet.score_items", "model.score_items"),
    ("loss", "build_terms", "loss.build_terms"),
    ("loss", "score_terms", "loss.score_terms"),
    ("loss", "loss_terms_backward", "loss.loss_terms_backward"),
    ("loss", "breakdown_from_terms", "loss.breakdown_from_terms"),
    ("loss", "regularizer_grads", "loss.regularizer_grads"),
    ("trainer", "train_model", "trainer.train_model"),
    ("trainer", "loss_and_grads", "trainer.loss_and_grads"),
    ("trainer", "SGD.step", "trainer.optimizer_step"),
    ("trainer", "Adam.step", "trainer.optimizer_step"),
    ("trainer", "save_checkpoint", "trainer.save_checkpoint"),
    ("trainer", "load_checkpoint", "trainer.load_checkpoint"),
    ("evaluate", "evaluate_ranking", "evaluate.evaluate_ranking"),
    ("evaluate", "negatives_digest", "evaluate.negatives_digest"),
)

# A binding that gets its own span name: ranking inside the trainer is the
# per-epoch validation, not the evaluate command's ranking.
REBOUND = {("trainer", "evaluate_ranking"): "trainer.validation"}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# span name -> (count name, amount per call)
COUNTERS = {
    "kernels.segment_mean": ("kernels.gathered_rows", lambda a, kw, r: len(_arg(a, kw, 1, "indices"))),
    "kernels.segment_sum": ("kernels.gathered_rows", lambda a, kw, r: len(_arg(a, kw, 1, "indices"))),
    "kernels.scatter_add_rows": ("kernels.scattered_rows", lambda a, kw, r: len(_arg(a, kw, 1, "idx"))),
    "loss.build_terms": ("loss.terms", lambda a, kw, r: len(r)),
    "evaluate.evaluate_ranking": ("evaluate.users_ranked", lambda a, kw, r: len(_arg(a, kw, 1, "records"))),
}


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def wrap(self, fn, name: str):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counts[counter[0]] = counts.get(counter[0], 0) + int(counter[1](args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        modules = {
            name[len("gbrec."):]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("gbrec.") and mod is not None
        }
        for mod_name, attr, span_name in TARGETS:
            module = modules.get(mod_name)
            if module is None:
                continue
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                orig = vars(cls).get(method) if cls is not None else None
                if orig is not None:
                    setattr(cls, method, self.wrap(orig, span_name))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            for holder_name, holder in modules.items():
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, self.wrap(orig, REBOUND.get((holder_name, key), span_name)))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    spawn = float(os.environ.get("GBBENCH_SPAWN_T", "nan"))
    for mod in ("gbrec.cli", "gbrec.baselines", "gbrec.loss"):
        importlib.import_module(mod)
    cli = sys.modules["gbrec.cli"]
    tracer = Tracer()
    tracer.install()
    main_start = time.perf_counter()
    code = 1
    try:
        code = tracer.wrap(cli.main, "cli.main")(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spawn": spawn,
                    "main_start": main_start,
                    "main_end": time.perf_counter(),
                    "exit_code": code,
                    "spans": tracer.spans,
                    "counts": tracer.counts,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
