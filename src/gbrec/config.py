"""Flat key=value config files with typed, exhaustive validation.

Grammar: one ``key = value`` pair per line; blank lines and ``#`` comments
ignored. Types are taken from the target dataclass's defaults (bool, int,
float, str, or comma-separated integer tuple), so config files stay diffable
plain text. Command-line flags override file values. All problems -- unknown
keys, bad types, out-of-range values -- are collected and reported together
rather than one at a time.
"""

from __future__ import annotations

import math
from dataclasses import fields as dc_fields


class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))


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


def load_typed(cls, path: str | None, overrides: dict[str, object] | None = None):
    """Build a validated dataclass instance from defaults + file + overrides.

    ``cls`` must be a dataclass with defaults for every field and a
    ``validate() -> list[str]`` method. Overrides are already-typed values
    (e.g. parsed command-line flags); ``None`` entries are skipped.
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

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in known:
            problems.append(f"override: unknown key {key!r}")
            continue
        values[key] = tuple(value) if isinstance(known[key], tuple) and not isinstance(value, tuple) else value

    instance = cls(**{**{k: v for k, v in known.items()}, **values})
    problems.extend(instance.validate())
    if problems:
        raise ConfigError(problems)
    return instance
