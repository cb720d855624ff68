"""Command-line entry point: prepare, train, evaluate, recommend, synth.

One orchestration layer over the library; no modelling logic lives here.
Results go to standard output, diagnostics to standard error, and the exit
code is 0 exactly when the command completed. Every command is deterministic
given its inputs and the seed, since BLAS runs at one thread unless set otherwise.

Each command imports the modules it runs when it starts, so a command
compiles and loads only its own code: ``recommend`` with a flat checkpoint
never loads the trainer, the loss, the graphs or GBGCN's ``model``, and
``synth`` never loads the scorer. At the top are only the parser's needs
(the two configurations in ``config``) and ``data``, which every command
reads or writes through.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields as dc_fields

# before NumPy sizes its BLAS pool: a dense product over hundreds of rows rounds
# differently at another thread count. A value the caller set is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from .config import (  # noqa: E402
    ACTIVATIONS,
    MODEL_TYPES,
    CheckpointError,
    ConfigError,
    Hyperparams,
    SynthConfig,
    TrainingError,
    coerce_value,
    load_typed,
)
from .data import DEFAULT_EVAL_NEGATIVES, IngestError, load_split_dir, load_train_dir, user_interactions  # noqa: E402

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


def _embeddings_from_checkpoint(args, ckpt, train, social):
    from .scoring import flat_embeddings

    P = ckpt.params.user_emb.shape[0]
    Q = ckpt.params.item_emb.shape[0]
    if P != train.num_users or Q != train.num_items:
        raise CheckpointError(
            f"{args.checkpoint} holds {P} users x {Q} items but the data dir "
            f"{args.data} has {train.num_users} x {train.num_items}"
        )
    if ckpt.model_type == "gbgcn":
        from .graphs import build_graphs
        from .model import forward

        bundle = build_graphs(train, ckpt.hp.failed_participant_edges)
        return forward(bundle, social, ckpt.params, ckpt.hp).emb
    return flat_embeddings(
        ckpt.params.user_emb, ckpt.params.item_emb, social, ckpt.hp.alpha, ckpt.hp.renormalize_alpha
    )


# ---------------------------------------------------------------------------
# commands


def cmd_prepare(args) -> int:
    from .evaluate import negatives_digest
    from .rawdata import ingest, save_split_dir, split_leave_one_out

    if args.negatives < 1:
        print(f"error: --negatives must be >= 1, got {args.negatives}", file=sys.stderr)
        return 2
    logb, social, stats = ingest(args.behaviors, args.social)
    split = split_leave_one_out(logb, args.seed, args.negatives)
    save_split_dir(args.outdir, split, social, stats, args.seed)
    log.info("wrote split artifacts to %s", args.outdir)
    print(stats.text())
    print(f"train_records={len(split.train)}")
    print(f"validation_users={len(split.validation)}")
    print(f"test_users={len(split.test)}")
    print(f"negatives_digest={negatives_digest(split.eval_negatives)}")
    return 0


def cmd_train(args) -> int:
    from .checkpoint import save_checkpoint
    from .trainer import train_model, write_training_log

    hp = load_typed(Hyperparams, args.config, _overrides(args, HP_KEYS))
    split, social, _stats = load_split_dir(args.data)
    result = train_model(args.model, split, social, hp, args.seed)
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
    from .checkpoint import load_checkpoint
    from .evaluate import evaluate_ranking, negatives_digest

    if args.ks is not None and min(args.ks) < 1:
        print(f"error: --ks must be >= 1, got {min(args.ks)}", file=sys.stderr)
        return 2
    split, social, _stats = load_split_dir(args.data)
    ckpt = load_checkpoint(args.checkpoint)
    emb = _embeddings_from_checkpoint(args, ckpt, split.train, social)
    ks = args.ks if args.ks is not None else tuple(ckpt.hp.eval_ks)
    if not len(split.test):
        raise IngestError(f"{args.data}: split has no test users")
    report = evaluate_ranking(emb.score_users, split.test, split.eval_negatives, ks)
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
    from .checkpoint import load_checkpoint

    if args.k < 1:
        print(f"error: --k must be >= 1, got {args.k}", file=sys.stderr)
        return 2
    train, social, _stats = load_train_dir(args.data)
    if not 0 <= args.user < train.num_users:  # before the checkpoint, whose forward pass may be long
        raise IndexError(f"--user {args.user} is out of range: the data dir {args.data} has {train.num_users} users")
    ckpt = load_checkpoint(args.checkpoint)
    emb = _embeddings_from_checkpoint(args, ckpt, train, social)
    scores = emb.score_users(np.array([args.user]))[0]  # ranked as evaluate ranks
    # stable ranking: score descending, item id ascending on ties
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    unseen = order[np.isin(order, user_interactions(train).neighbors(args.user), invert=True)]
    for item in unseen[: args.k].tolist():
        print(f"{item}\t{scores[item]:.6f}")
    return 0


def cmd_synth(args) -> int:
    from .synthetic import generate

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
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output (``gbrec recommend ... | head -1``): stop
        # quietly, with stdout on devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a missing file or a directory where a file belongs (OSError), and every
    # IngestError and CheckpointError (both ValueErrors)
    except (OSError, ValueError, IndexError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
