"""The two configurations, flat key=value config files with typed, exhaustive
validation, and the errors that end a command.

``Hyperparams`` configures training and ``SynthConfig`` the generator; both
live here, apart from the code they configure, so the command-line parser can
build its flags from their fields without importing that code.

Grammar: one ``key = value`` pair per line; blank lines and ``#`` comments
ignored. Types are taken from the target dataclass's defaults (bool, int,
float or str), so config files stay diffable plain text. Command-line flags override file values. All problems -- unknown
keys, bad types, out-of-range values -- are collected and reported together
rather than one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields

ACTIVATIONS = ("leaky_relu", "identity", "tanh")
MODEL_TYPES = ("gbgcn", "gbmf", "mf")


class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))


class TrainingError(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


def finite_first(instance, range_problems: list[str]) -> list[str]:
    """``range_problems`` of a dataclass instance, with each non-finite float
    field reported once, as not finite, in place of its range check: NaN
    passes every range check, and inf passes the one-sided ones."""
    values = {f.name: getattr(instance, f.name) for f in dc_fields(instance)}
    nonfinite = [k for k, v in values.items() if isinstance(v, float) and not math.isfinite(v)]
    problems = [f"{k} must be finite, got {values[k]}" for k in nonfinite]
    return problems + [p for p in range_problems if p.split(" ", 1)[0] not in nonfinite]


TRUE_WORDS = ("1", "true", "yes", "on")
FALSE_WORDS = ("0", "false", "no", "off")


def parse_kv_file(path: str) -> dict[str, str]:
    """Read a key=value file; raises ConfigError with file:line on bad syntax
    or a line that is not UTF-8. Lines end in ``\\n``, ``\\r\\n`` or ``\\r``."""
    out: dict[str, str] = {}
    problems: list[str] = []
    with open(path, "rb") as fh:
        lines = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError:
            problems.append(f"{path}:{lineno}: not valid UTF-8")
            continue
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{path}:{lineno}: expected key = value, got {line!r}")
            continue
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            problems.append(f"{path}:{lineno}: empty key")
            continue
        if key in out:
            problems.append(f"{path}:{lineno}: duplicate key {key!r}")
            continue
        out[key] = value
    if problems:
        raise ConfigError(problems)
    return out


def coerce_value(raw: str, template) -> object:
    """Parse ``raw`` to the type of ``template``; raises ValueError."""
    if isinstance(template, bool):  # bool before int: bool is an int subclass
        low = raw.strip().lower()
        if low in TRUE_WORDS:
            return True
        if low in FALSE_WORDS:
            return False
        raise ValueError(f"expected boolean, got {raw!r}")
    if isinstance(template, int):
        return int(raw)
    if isinstance(template, float):
        return float(raw)
    if isinstance(template, tuple):
        items = [t for t in raw.replace(",", " ").split() if t]
        if not items:
            raise ValueError("expected a comma-separated integer list")
        return tuple(int(t) for t in items)
    if isinstance(template, str):
        return raw
    raise ValueError(f"unsupported config type {type(template).__name__}")


def load_typed(cls, path: str | None, overrides: dict[str, object]):
    """Build a validated dataclass instance from defaults + file + overrides.

    ``cls`` must be a dataclass with defaults for every field and a
    ``validate() -> list[str]`` method, each of whose problems starts with
    the name of its field. Overrides are already-typed values (e.g. parsed
    command-line flags); ``None`` entries are skipped. A problem with a value
    that the file set, and no override replaced, names the file.
    """
    defaults = cls()
    known = {f.name: getattr(defaults, f.name) for f in dc_fields(cls)}
    values: dict[str, object] = {}
    problems: list[str] = []

    if path is not None:
        for key, raw in parse_kv_file(path).items():
            if key not in known:
                problems.append(f"{path}: unknown key {key!r}")
                continue
            try:
                values[key] = coerce_value(raw, known[key])
            except ValueError as exc:
                problems.append(f"{path}: key {key!r}: {exc}")
    from_file = set(values)

    for key, value in overrides.items():
        if value is None:
            continue
        if key not in known:
            problems.append(f"override: unknown key {key!r}")
            continue
        values[key] = value
        from_file.discard(key)

    instance = cls(**{**{k: v for k, v in known.items()}, **values})
    problems.extend(f"{path}: {p}" if p.split(" ", 1)[0] in from_file else p for p in instance.validate())
    if problems:
        raise ConfigError(problems)
    return instance


# ---------------------------------------------------------------------------
# the two configurations


@dataclass
class Hyperparams:
    dim: int = 32
    num_layers: int = 2
    alpha: float = 0.6
    beta: float = 0.05
    activation: str = "leaky_relu"
    activation_slope: float = 0.2
    neg_ratio: int = 1
    l2_coeff: float = 1e-5
    social_reg_coeff: float = 1e-5
    batch_size: int = 4096
    epochs: int = 500
    pretrain_epochs: int = 50
    pretrain_lr: float = 1e-3
    # the ranking loss sums over batch terms, so workable rates scale inversely
    # with batch size; 1e-2 trains stably at batch_size=4096 on desk-scale data
    finetune_lr: float = 1e-2
    renormalize_alpha: bool = False
    failed_participant_edges: bool = True

    def validate(self) -> list[str]:
        """Collect every config problem instead of stopping at the first."""
        return finite_first(self, self._range_problems())

    def _range_problems(self) -> list[str]:
        problems = []
        if self.dim < 1:
            problems.append(f"dim must be >= 1, got {self.dim}")
        if self.num_layers < 0:
            problems.append(f"num_layers must be >= 0, got {self.num_layers}")
        if not 0.0 <= self.alpha <= 1.0:
            problems.append(f"alpha must be in [0, 1], got {self.alpha}")
        if self.beta < 0:
            problems.append(f"beta must be >= 0, got {self.beta}")
        if self.activation not in ACTIVATIONS:
            problems.append(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.activation_slope < 0:
            problems.append(f"activation_slope must be >= 0, got {self.activation_slope}")
        if self.neg_ratio < 1:
            problems.append(f"neg_ratio must be >= 1, got {self.neg_ratio}")
        if self.l2_coeff < 0:
            problems.append(f"l2_coeff must be >= 0, got {self.l2_coeff}")
        if self.social_reg_coeff < 0:
            problems.append(f"social_reg_coeff must be >= 0, got {self.social_reg_coeff}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            problems.append(f"epochs must be >= 0, got {self.epochs}")
        if self.pretrain_epochs < 0:
            problems.append(f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        if self.pretrain_lr <= 0:
            problems.append(f"pretrain_lr must be > 0, got {self.pretrain_lr}")
        if self.finetune_lr <= 0:
            problems.append(f"finetune_lr must be > 0, got {self.finetune_lr}")
        return problems

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparams":
        known = {f.name for f in dc_fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass
class SynthConfig:
    num_users: int = 500
    num_items: int = 200
    latent_dim: int = 8
    num_records: int = 20000
    mean_friends: float = 8.0
    activity_concentration: float = 2.0
    item_temp: float = 0.2
    join_scale: float = 4.0
    join_bias: float = -1.0
    success_threshold: int = 2
    role_correlation: float = 0.5
    launch_social_mix: float = 0.5

    def validate(self) -> list[str]:
        # inf would also overflow the generator
        return finite_first(self, self._range_problems())

    def _range_problems(self) -> list[str]:
        problems = []
        if self.num_users < 2:
            problems.append(f"num_users must be >= 2, got {self.num_users}")
        if self.num_items < 2:
            problems.append(f"num_items must be >= 2, got {self.num_items}")
        if self.latent_dim < 1:
            problems.append(f"latent_dim must be >= 1, got {self.latent_dim}")
        if self.num_records < max(self.num_users, self.num_items):
            problems.append(
                "num_records must be >= max(num_users, num_items) so every id can appear, "
                f"got {self.num_records}"
            )
        if self.mean_friends < 0:
            problems.append(f"mean_friends must be >= 0, got {self.mean_friends}")
        if self.activity_concentration <= 0:
            problems.append(f"activity_concentration must be > 0, got {self.activity_concentration}")
        if self.item_temp <= 0:
            problems.append(f"item_temp must be > 0, got {self.item_temp}")
        if self.success_threshold < 0:
            problems.append(f"success_threshold must be >= 0, got {self.success_threshold}")
        if not 0.0 <= self.role_correlation <= 1.0:
            problems.append(f"role_correlation must be in [0, 1], got {self.role_correlation}")
        if not 0.0 <= self.launch_social_mix <= 1.0:
            problems.append(f"launch_social_mix must be in [0, 1], got {self.launch_social_mix}")
        return problems

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}
