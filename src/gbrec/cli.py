"""Command-line entry point: prepare, train, evaluate, recommend, synth.

One orchestration layer over the library; no modelling logic lives here.
Results go to standard output, diagnostics to standard error, and the exit
code is 0 exactly when the command completed. Every command is deterministic
given its inputs, the seed, and a fixed thread count (``--threads`` or the
``GBREC_NUM_THREADS`` environment variable).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields as dc_fields

import numpy as np

from . import __version__, kernels
from .config import ConfigError, coerce_value, load_typed
from .data import (
    DEFAULT_EVAL_NEGATIVES,
    IngestError,
    ingest,
    load_split_dir,
    save_split_dir,
    split_leave_one_out,
    user_interactions,
)
from .evaluate import evaluate_ranking, negatives_digest
from .graphs import build_graphs
from .model import ACTIVATIONS, MODEL_TYPES, Hyperparams, flat_embeddings, forward
from .synthetic import SynthConfig, generate
from .trainer import (
    CheckpointError,
    TrainingError,
    load_checkpoint,
    save_checkpoint,
    train_model,
    write_training_log,
)

log = logging.getLogger("gbrec.cli")

HP_KEYS = tuple(f.name for f in dc_fields(Hyperparams))
SYNTH_KEYS = tuple(f.name for f in dc_fields(SynthConfig))


def _bool_arg(s: str) -> bool:
    return coerce_value(s, True)


def _int_tuple_arg(s: str) -> tuple[int, ...]:
    return coerce_value(s, (0,))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_dataclass_flags(p: argparse.ArgumentParser, cls, choices: dict | None = None) -> None:
    """One optional override flag per field, typed from the field default."""
    defaults = cls()
    for f in dc_fields(cls):
        template = getattr(defaults, f.name)
        kwargs: dict = {"default": None, "help": f"override {f.name} (default {template})"}
        if choices and f.name in choices:
            kwargs["choices"] = choices[f.name]
        if isinstance(template, bool):
            kwargs["type"] = _bool_arg
            kwargs["metavar"] = "BOOL"
        elif isinstance(template, int):
            kwargs["type"] = int
        elif isinstance(template, float):
            kwargs["type"] = float
        elif isinstance(template, tuple):
            kwargs["type"] = _int_tuple_arg
            kwargs["metavar"] = "K1,K2,..."
        else:
            kwargs["type"] = str
        p.add_argument(_flag(f.name), **kwargs)


def _overrides(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _embeddings_from_checkpoint(ckpt, split, social):
    P = ckpt.params.user_emb.shape[0]
    Q = ckpt.params.item_emb.shape[0]
    if P != split.num_users or Q != split.num_items:
        raise CheckpointError(
            f"checkpoint holds {P} users x {Q} items but the data dir has "
            f"{split.num_users} x {split.num_items}"
        )
    if ckpt.model_type == "gbgcn":
        bundle = build_graphs(split.train, ckpt.hp.failed_participant_edges)
        return forward(bundle, social, ckpt.params, ckpt.hp).emb
    return flat_embeddings(
        ckpt.params.user_emb, ckpt.params.item_emb, social, ckpt.hp.alpha, ckpt.hp.renormalize_alpha
    )


# ---------------------------------------------------------------------------
# commands


def cmd_prepare(args) -> int:
    logb, social, stats = ingest(args.behaviors, args.social)
    split = split_leave_one_out(logb, args.seed, args.negatives)
    save_split_dir(args.outdir, split, social, stats, args.seed)
    log.info("wrote split artifacts to %s", args.outdir)
    print(stats.text())
    print(f"train_records={len(split.train.records)}")
    print(f"validation_users={len(split.validation)}")
    print(f"test_users={len(split.test)}")
    print(f"negatives_digest={negatives_digest(split.eval_negatives)}")
    return 0


def cmd_train(args) -> int:
    hp = load_typed(Hyperparams, args.config, _overrides(args, HP_KEYS))
    split, social, _stats = load_split_dir(args.data)
    dtype = np.float64 if args.float64 else np.float32
    result = train_model(args.model, split, social, hp, args.seed, dtype=dtype)
    os.makedirs(args.outdir, exist_ok=True)
    ckpt_path = os.path.join(args.outdir, "checkpoint.bin")
    log_path = os.path.join(args.outdir, "training_log.jsonl")
    save_checkpoint(ckpt_path, result.model_type, result.params, result.hp)
    write_training_log(log_path, result.entries)
    print(f"model={result.model_type}")
    print(f"checkpoint={ckpt_path}")
    print(f"training_log={log_path}")
    print(f"training_log_hash={result.log_hash}")
    return 0


def cmd_evaluate(args) -> int:
    split, social, _stats = load_split_dir(args.data)
    ckpt = load_checkpoint(args.checkpoint)
    emb = _embeddings_from_checkpoint(ckpt, split, social)
    ks = args.ks if args.ks is not None else tuple(ckpt.hp.eval_ks)
    if not split.test:
        raise IngestError(f"{args.data}: split has no test users")
    report = evaluate_ranking(emb.score_items, split.test, split.eval_negatives, ks)
    digest = negatives_digest(split.eval_negatives)
    print(report.text())
    print(f"negatives_digest={digest}")
    if args.out:
        payload = report.to_dict()
        payload["model_type"] = ckpt.model_type
        payload["negatives_digest"] = digest
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("wrote report to %s", args.out)
    return 0


def cmd_recommend(args) -> int:
    if args.k < 1:
        print(f"error: --k must be >= 1, got {args.k}", file=sys.stderr)
        return 2
    split, social, _stats = load_split_dir(args.data)
    ckpt = load_checkpoint(args.checkpoint)
    emb = _embeddings_from_checkpoint(ckpt, split, social)
    if not 0 <= args.user < split.num_users:
        raise IndexError(f"user id {args.user} out of range [0, {split.num_users})")
    scores = emb.all_item_scores(args.user)
    # stable ranking: score descending, item id ascending on ties
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    seen = user_interactions(split.train)[args.user]
    picked = [int(i) for i in order if int(i) not in seen][: args.k]
    for item in picked:
        print(f"{item}\t{scores[item]:.6f}")
    return 0


def cmd_synth(args) -> int:
    cfg = load_typed(SynthConfig, args.config, _overrides(args, SYNTH_KEYS))
    result = generate(cfg, args.seed, args.outdir)
    for key, value in result.counters.items():
        print(f"{key}={value}")
    print(f"behaviors={result.behavior_path}")
    print(f"social={result.social_path}")
    print(f"planted={result.planted_path}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbrec", description="group-buying recommendation: data prep, training, evaluation"
    )
    parser.add_argument("--version", action="version", version=f"gbrec {__version__}")
    parser.add_argument("--threads", type=int, default=None, help="worker thread cap (env: GBREC_NUM_THREADS)")
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest raw files, split, freeze eval negatives")
    p.add_argument("behaviors", help="behavior log (initiator<TAB>item<TAB>p1,p2,...<TAB>success)")
    p.add_argument("social", help="social edges (user_a<TAB>user_b)")
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--negatives", type=int, default=DEFAULT_EVAL_NEGATIVES)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="pretrain + finetune a model on a prepared split")
    p.add_argument("--data", required=True, help="directory written by prepare")
    p.add_argument("--outdir", required=True)
    p.add_argument("--model", choices=MODEL_TYPES, default="gbgcn")
    p.add_argument("--config", default=None, help="key=value hyperparameter file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--float64", action="store_true", help="train in 64-bit precision")
    _add_dataclass_flags(p, Hyperparams, choices={"activation": ACTIVATIONS})
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="leave-one-out metrics for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ks", type=_int_tuple_arg, default=None, metavar="K1,K2,...")
    p.add_argument("--out", default=None, help="also write a JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="top-K unseen items for one user")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("synth", help="generate a planted-model synthetic dataset")
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="key=value generator config file")
    _add_dataclass_flags(p, SynthConfig)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    threads = args.threads
    if threads is None and os.environ.get("GBREC_NUM_THREADS"):
        try:
            threads = int(os.environ["GBREC_NUM_THREADS"])
        except ValueError:
            print("error: GBREC_NUM_THREADS must be an integer", file=sys.stderr)
            return 2
    try:
        if threads is not None:
            kernels.set_num_threads(threads)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IngestError, CheckpointError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
