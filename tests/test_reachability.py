"""Every definition under ``src/gbrec`` serves a command.

An AST walk finds what a ``gbrec`` command, ``gbbench`` or ``benchmarks/``
can reach. The roots are all code under ``gbbench/`` and ``benchmarks/`` and
the module-level statements of every gbrec module, which run on import (the
``gbrec`` entry point, ``cli.main``, is called at the end of ``cli``). From a
reached body:

* a name reaches the definition it is bound to: its module's own, or one
  imported from a gbrec module, following re-exports;
* ``C.m`` with ``C`` a gbrec class reaches that method, and ``mod.f`` with
  ``mod`` a gbrec module reaches that function;
* an attribute of any other receiver reaches every definition of that name.

A reached class reaches its dunder methods, which Python calls. Nothing
under ``tests/`` is a root, so a definition that only tests reach fails here:
move it into ``tests/`` or delete it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gbrec"
ROOT_DIRS = (ROOT / "gbbench", ROOT / "benchmarks")

# Reached only from tests/, on purpose, with the reason.
ALLOWED = {
    "scoring.EmbeddingSet.predict": "criterion 03 asserts the bits of one score, a per-block vector dot, "
    "against the sum of dots it builds itself",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Module:
    """One file: its top-level definitions and methods, and its gbrec imports."""

    def __init__(self, path: Path, name: str | None = None):
        self.name = name
        self.tree = ast.parse(path.read_text(encoding="utf-8"))
        self.defs: dict[str, ast.AST] = {}  # "f", "C" or "C.m" -> node
        for node in self.tree.body:
            if isinstance(node, DEFS):
                self.defs[node.name] = node
            if isinstance(node, ast.ClassDef):
                self.defs |= {f"{node.name}.{m.name}": m for m in node.body if isinstance(m, DEFS[:2])}
        # local name -> (gbrec module, attribute), with attribute None for a module
        self.imports: dict[str, tuple[str, str | None]] = {}
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = f"gbrec.{node.module}" if node.level and node.module else "gbrec" if node.level else node.module
            for alias in node.names:
                if source == "gbrec":
                    self.imports[alias.asname or alias.name] = (alias.name, None)
                elif source and source.startswith("gbrec."):
                    self.imports[alias.asname or alias.name] = (source[len("gbrec."):], alias.name)

    def binding(self, name: str) -> tuple[str, str | None] | None:
        if self.name is not None and name in self.defs:
            return (self.name, name)
        return self.imports.get(name)


def unreached() -> set[str]:
    """``module.qualname`` of every definition under ``src/gbrec`` that no root reaches."""
    src = {p.stem: Module(p, p.stem) for p in sorted(SRC.glob("*.py"))}
    by_name: dict[str, set[str]] = {}
    for mod in src.values():
        for qual in mod.defs:
            by_name.setdefault(qual.rpartition(".")[2], set()).add(f"{mod.name}.{qual}")

    def resolve(module: str, qual: str) -> str | None:
        mod = src.get(module)
        if mod is None:
            return None
        if qual in mod.defs:
            return f"{module}.{qual}"
        bound = mod.imports.get(qual)  # a re-export
        return resolve(*bound) if bound and bound[1] else None

    def references(mod: Module, nodes) -> set[str]:
        out = set()
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name):
                bound = mod.binding(node.id)
                key = resolve(*bound) if bound and bound[1] else None
                if key:
                    out.add(key)
            elif isinstance(node, ast.Attribute):
                bound = mod.binding(node.value.id) if isinstance(node.value, ast.Name) else None
                key = None
                if bound and bound[1] is None:  # a gbrec module
                    key = resolve(bound[0], node.attr)
                elif bound and (owner := resolve(*bound)):  # a gbrec class: one of its methods
                    module, qual = owner.split(".", 1)
                    key = resolve(module, f"{qual}.{node.attr}")
                out |= {key} if key else by_name.get(node.attr, set())
        return out

    def body(key: str) -> tuple[Module, list[ast.AST]]:
        module, qual = key.split(".", 1)
        node = src[module].defs[qual]
        if isinstance(node, ast.ClassDef):  # its bases, decorators and class-level statements
            return src[module], [*node.bases, *node.keywords, *node.decorator_list,
                                 *(s for s in node.body if not isinstance(s, DEFS[:2]))]
        return src[module], [node]

    work = [(m, [m.tree]) for d in ROOT_DIRS for m in map(Module, sorted(d.rglob("*.py")))]
    work += [(m, [s for s in m.tree.body if not isinstance(s, DEFS)]) for m in src.values()]
    reached: set[str] = set()
    while work:
        mod, nodes = work.pop()
        for key in references(mod, nodes) - reached:
            module, qual = key.split(".", 1)
            dunders = {f"{module}.{q}" for q in src[module].defs if q.startswith(f"{qual}.__") and q.endswith("__")}
            for new in ({key} | dunders) - reached:
                reached.add(new)
                work.append(body(new))
    return {f"{m.name}.{qual}" for m in src.values() for qual in m.defs} - reached


def test_every_definition_under_src_serves_a_command():
    stray = sorted(unreached() - set(ALLOWED))
    assert not stray, "reached only from tests/ (move into tests/ or delete): " + ", ".join(stray)


def test_each_allowed_exception_is_still_unreached():
    assert unreached() >= set(ALLOWED), "an allowance outlived its reason"
