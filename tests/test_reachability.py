"""Every definition and every parameter under ``src/gbrec`` serves a command.

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

The parameter guard reads the calls in the same code, matched to their
definitions by the same rules, with ``C(...)`` a call of ``C.__init__``. So
an attribute call is matched by name, and a call of a method that another
definition shares a name with counts for both: that blind spot is the
definition guard's too. A defaulted parameter fails when no call passes it
(a knob no command turns), or when its default is None and every call passes
it (a fallback no command takes). A function that the code names other than
as a callee, as in ``functools.partial(f, ...)``, is called where no call
can be seen, so its parameters are not judged.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gbrec"
ROOT_DIRS = (ROOT / "gbbench", ROOT / "benchmarks")

# Reached only from tests/, on purpose, with the reason.
ALLOWED = {
    "scoring.EmbeddingSet.predict": "criterion 03 asserts the bits of one score, a per-block vector dot, "
    "against the sum of dots it builds itself",
}

# Parameters that only tests/ pass, on purpose, with the reason.
ALLOWED_PARAMETERS = {
    "model.init_params(dtype)": "criterion 03 builds float64 parameters through it, and a criterion's "
    "inputs do not move",
    "scoring.init_flat_params(dtype)": "criterion 03 builds float64 parameters through it, and a criterion's "
    "inputs do not move",
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


class Package:
    """The modules of ``src/gbrec``, and what a name or attribute in a file means."""

    def __init__(self):
        self.src = {p.stem: Module(p, p.stem) for p in sorted(SRC.glob("*.py"))}
        self.by_name: dict[str, set[str]] = {}
        for mod in self.src.values():
            for qual in mod.defs:
                self.by_name.setdefault(qual.rpartition(".")[2], set()).add(f"{mod.name}.{qual}")

    def node(self, key: str) -> ast.AST:
        module, qual = key.split(".", 1)
        return self.src[module].defs[qual]

    def resolve(self, module: str, qual: str) -> str | None:
        mod = self.src.get(module)
        if mod is None:
            return None
        if qual in mod.defs:
            return f"{module}.{qual}"
        bound = mod.imports.get(qual)  # a re-export
        return self.resolve(*bound) if bound and bound[1] else None

    def targets(self, mod: Module, node: ast.AST) -> set[str]:
        """The definitions that a name or attribute of ``mod`` can mean."""
        if isinstance(node, ast.Name):
            bound = mod.binding(node.id)
            key = self.resolve(*bound) if bound and bound[1] else None
            return {key} if key else set()
        if not isinstance(node, ast.Attribute):
            return set()
        bound = mod.binding(node.value.id) if isinstance(node.value, ast.Name) else None
        key = None
        if bound and bound[1] is None:  # a gbrec module
            key = self.resolve(bound[0], node.attr)
        elif bound and (owner := self.resolve(*bound)):  # a gbrec class: one of its methods
            key = self.method(owner, node.attr)
        return {key} if key else self.by_name.get(node.attr, set())

    def method(self, cls: str, name: str) -> str | None:
        module, qual = cls.split(".", 1)
        return self.resolve(module, f"{qual}.{name}")


@functools.cache
def package() -> Package:
    return Package()


def root_modules() -> list[Module]:
    return [Module(p) for d in ROOT_DIRS for p in sorted(d.rglob("*.py"))]


def unreached() -> set[str]:
    """``module.qualname`` of every definition under ``src/gbrec`` that no root reaches."""
    pkg = package()

    def body(key: str) -> tuple[Module, list[ast.AST]]:
        module = pkg.src[key.split(".", 1)[0]]
        node = pkg.node(key)
        if isinstance(node, ast.ClassDef):  # its bases, decorators and class-level statements
            return module, [*node.bases, *node.keywords, *node.decorator_list,
                            *(s for s in node.body if not isinstance(s, DEFS[:2]))]
        return module, [node]

    work = [(m, [m.tree]) for m in root_modules()]
    work += [(m, [s for s in m.tree.body if not isinstance(s, DEFS)]) for m in pkg.src.values()]
    reached: set[str] = set()
    while work:
        mod, nodes = work.pop()
        refs = set().union(*(pkg.targets(mod, n) for top in nodes for n in ast.walk(top)))
        for key in refs - reached:
            module, qual = key.split(".", 1)
            dunders = {f"{module}.{q}" for q in pkg.src[module].defs if q.startswith(f"{qual}.__") and q.endswith("__")}
            for new in ({key} | dunders) - reached:
                reached.add(new)
                work.append(body(new))
    return {f"{m.name}.{qual}" for m in pkg.src.values() for qual in m.defs} - reached


def _is_super(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Name) and call.func.id == "super"


def _decorators(fn: ast.AST) -> set[str]:
    return {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}


def _passed(fn: ast.FunctionDef, call: ast.Call, bound_first: bool) -> set[str] | None:
    """The parameters of ``fn`` that ``call`` passes, or None for all of them
    (a ``*args`` or ``**kwargs`` at the call). ``bound_first``: the call's
    receiver fills the first parameter, as ``self`` or ``cls``."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return None
    positional = [p.arg for p in fn.args.posonlyargs + fn.args.args][int(bound_first):]
    return set(positional[: len(call.args)]) | {k.arg for k in call.keywords}


def stray_parameters() -> dict[str, str]:
    """``module.qualname(parameter)`` of every defaulted parameter under
    ``src/gbrec`` that no call outside ``tests/`` passes, or that has a None
    default and is passed by every such call, mapped to which of the two."""
    pkg = package()
    modules = [*pkg.src.values(), *root_modules()]
    calls: dict[str, list[set[str] | None]] = {}
    named_otherwise: set[str] = set()
    for mod in modules:
        nodes = list(ast.walk(mod.tree))
        callees = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
        # a receiver, an annotation or a base names no function to call
        quiet = {id(n.value) for n in nodes if isinstance(n, ast.Attribute)}
        # super() in a class body: the gbrec classes that class derives from
        supers: dict[int, set[str]] = {}
        for n in nodes:
            notes = [getattr(n, "annotation", None), getattr(n, "returns", None), *getattr(n, "bases", ())]
            quiet |= {id(x) for note in notes if note is not None for x in ast.walk(note)}
            if isinstance(n, ast.ClassDef):
                bases = set().union(*(pkg.targets(mod, b) for b in n.bases))
                supers |= {id(s): bases for s in ast.walk(n) if isinstance(s, ast.Call) and _is_super(s)}
        for n in nodes:
            if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in callees | quiet:
                named_otherwise |= pkg.targets(mod, n)
            if not isinstance(n, ast.Call):
                continue
            receiver = n.func.value if isinstance(n.func, ast.Attribute) else None
            via_class = receiver is not None and any(isinstance(pkg.node(k), ast.ClassDef)
                                                     for k in pkg.targets(mod, receiver))
            if id(receiver) in supers:
                keys = {k for base in supers[id(receiver)] if (k := pkg.method(base, n.func.attr))}
            else:
                keys = pkg.targets(mod, n.func)
            for key in keys:
                fn, bound_first = pkg.node(key), "." in key.split(".", 1)[1]
                if isinstance(fn, ast.ClassDef):
                    key = pkg.method(key, "__init__")
                    if key is None:
                        continue
                    fn = pkg.node(key)
                elif bound_first:
                    kinds = _decorators(fn)
                    bound_first = "classmethod" in kinds or ("staticmethod" not in kinds and not via_class)
                calls.setdefault(key, []).append(_passed(fn, n, bound_first))
    stray = {}
    for mod in pkg.src.values():
        for qual, fn in mod.defs.items():
            key = f"{mod.name}.{qual}"
            if isinstance(fn, ast.ClassDef) or key in named_otherwise or (
                qual.endswith(".__init__") and key.rsplit(".", 1)[0] in named_otherwise
            ):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            defaults = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            defaults += [(p, d) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            seen = calls.get(key, [])
            for param, default in defaults:
                passing = [p is None or param.arg in p for p in seen]
                if not any(passing):
                    stray[f"{key}({param.arg})"] = "passed by no call"
                elif isinstance(default, ast.Constant) and default.value is None and all(passing):
                    stray[f"{key}({param.arg})"] = "defaults to None, yet every call passes it"
    return stray


def test_every_definition_under_src_serves_a_command():
    stray = sorted(unreached() - set(ALLOWED))
    assert not stray, "reached only from tests/ (move into tests/ or delete): " + ", ".join(stray)


def test_each_allowed_exception_is_still_unreached():
    assert unreached() >= set(ALLOWED), "an allowance outlived its reason"


def test_every_parameter_under_src_serves_a_command():
    stray = {k: v for k, v in stray_parameters().items() if k not in ALLOWED_PARAMETERS}
    assert not stray, "parameters that no command needs (delete them, or make them required): " + "; ".join(
        f"{k}: {v}" for k, v in sorted(stray.items())
    )


def test_each_allowed_parameter_is_still_stray():
    assert set(stray_parameters()) >= set(ALLOWED_PARAMETERS), "an allowance outlived its reason"
