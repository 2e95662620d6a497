"""Cross-module signature index for the unit-discipline checker.

Pass one of the analyzer walks every file (the lint targets plus the
installed ``repro`` package) and records, without importing
anything, the parameter names of every function, method, and
constructor — including synthesised dataclass constructors. Pass two
uses the index to bind call arguments to parameter names so the unit
checker can compare suffixes across module boundaries.

The names the tests tree references (the RL602 coverage rule's
evidence) are read on first use, so a run that lints no public
``*_batch`` kernel never opens the tests tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.lint.context import FileContext

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def function_scopes(tree: ast.AST) -> List[List[FunctionNode]]:
    """Functions grouped by their defining scope (module or class).

    Scalar/batch pairing is a *scope-local* convention — ``run`` and
    ``run_scalar`` are twins only when they live in the same class or
    module body.
    """
    scopes: List[List[FunctionNode]] = []

    def collect(body: List[ast.stmt]) -> None:
        here: List[FunctionNode] = []
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                here.append(stmt)
            elif isinstance(stmt, ast.ClassDef):
                collect(stmt.body)
        if here:
            scopes.append(here)

    if isinstance(tree, ast.Module):
        collect(tree.body)
    return scopes


def scalar_partner(
    name: str, siblings: Set[str]
) -> Optional[str]:
    """The scalar/batch twin of ``name`` among ``siblings``, if any.

    Recognizes the repo's pairing conventions: ``X_batch`` twins
    ``X`` or ``X_scalar``; ``X_scalar`` twins ``X`` or ``X_batch``;
    a bare ``X`` twins ``X_scalar`` or ``X_batch``.
    """
    if name.endswith("_batch"):
        base = name[: -len("_batch")]
        candidates = (base, base + "_scalar")
    elif name.endswith("_scalar"):
        base = name[: -len("_scalar")]
        candidates = (base, base + "_batch")
    else:
        candidates = (name + "_scalar", name + "_batch")
    for candidate in candidates:
        if candidate in siblings:
            return candidate
    return None


def referenced_names(tree: ast.AST) -> Set[str]:
    """Every identifier a module mentions, by name or attribute."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@dataclass(frozen=True)
class FunctionSig:
    """Parameter names of one callable, in binding order."""

    module: str
    qualname: str
    params: Tuple[str, ...]
    kwonly: Tuple[str, ...]
    has_vararg: bool
    has_kwarg: bool

    @property
    def display(self) -> str:
        return f"{self.module}.{self.qualname}"


def _sig_from_args(
    module: str,
    qualname: str,
    args: ast.arguments,
    drop_first: bool,
) -> FunctionSig:
    params: List[str] = [
        a.arg for a in (*args.posonlyargs, *args.args)
    ]
    if drop_first and params and params[0] in ("self", "cls"):
        params = params[1:]
    return FunctionSig(
        module=module,
        qualname=qualname,
        params=tuple(params),
        kwonly=tuple(a.arg for a in args.kwonlyargs),
        has_vararg=args.vararg is not None,
        has_kwarg=args.kwarg is not None,
    )


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name: Optional[str] = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass":
            return True
    return False


def _dataclass_ctor(
    module: str, node: ast.ClassDef
) -> FunctionSig:
    """Synthesise ``__init__`` params from annotated class fields."""
    params: List[str] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        annotation = ast.dump(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        params.append(stmt.target.id)
    return FunctionSig(
        module=module,
        qualname=node.name,
        params=tuple(params),
        kwonly=(),
        has_vararg=False,
        has_kwarg=False,
    )


@dataclass
class SignatureIndex:
    """All known callables, keyed for the resolutions we support."""

    #: (module, function name) -> sig, for module-level functions.
    functions: Dict[Tuple[str, str], FunctionSig] = field(
        default_factory=dict
    )
    #: (module, class, method) -> sig (``self`` stripped).
    methods: Dict[Tuple[str, str, str], FunctionSig] = field(
        default_factory=dict
    )
    #: (module, class) -> constructor sig (``self`` stripped).
    constructors: Dict[Tuple[str, str], FunctionSig] = field(
        default_factory=dict
    )
    #: method name -> every signature carrying it, for by-name
    #: resolution of instance-method calls (``tower.power_at(...)``)
    #: whose receiver type is not statically known.
    by_method_name: Dict[str, List[FunctionSig]] = field(
        default_factory=dict
    )
    #: callee name -> (dispatcher name, its scalar twin) for every
    #: function that has a scalar twin in its own scope and calls the
    #: callee — the cross-file resolution step of the RL6
    #: oracle-coverage rule (a batch kernel is covered when a
    #: dispatcher with a scalar twin delegates to it).
    scalar_dispatchers: Dict[str, List[Tuple[str, str]]] = field(
        default_factory=dict
    )
    #: The tests tree whose references feed the RL6 coverage rule;
    #: ``None`` when the engine was given (or discovered) none.
    tests_root: Optional[Path] = None

    def add_module(self, ctx: FileContext) -> None:
        module = ctx.module
        for node in ctx.tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self.functions[(module, node.name)] = _sig_from_args(
                    module, node.name, node.args, drop_first=False
                )
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, node)
        self._add_dispatchers(ctx)

    @cached_property
    def test_refs(self) -> Optional[List[Set[str]]]:
        """Every name each parsable test module references.

        ``None`` when there is no tests tree or no module in it
        parses, which tells "no tests indexed" apart from "no test
        references this name".
        """
        if self.tests_root is None or not self.tests_root.is_dir():
            return None
        refs: List[Set[str]] = []
        for path in sorted(self.tests_root.rglob("*.py")):
            try:
                tree = ast.parse(
                    path.read_text(encoding="utf-8"), filename=str(path)
                )
            except (SyntaxError, UnicodeDecodeError):
                continue  # broken test files are pytest's problem
            refs.append(referenced_names(tree))
        return refs or None

    def _add_dispatchers(self, ctx: FileContext) -> None:
        for scope_functions in function_scopes(ctx.tree):
            names = {fn.name for fn in scope_functions}
            for fn in scope_functions:
                partner = scalar_partner(fn.name, names)
                if partner is None:
                    continue
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    callee: Optional[str] = None
                    if isinstance(node.func, ast.Name):
                        callee = node.func.id
                    elif isinstance(node.func, ast.Attribute):
                        callee = node.func.attr
                    if callee is None or callee == fn.name:
                        continue
                    entry = (fn.name, partner)
                    bucket = self.scalar_dispatchers.setdefault(
                        callee, []
                    )
                    if entry not in bucket:
                        bucket.append(entry)

    def _add_class(self, module: str, node: ast.ClassDef) -> None:
        saw_init = False
        for stmt in node.body:
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            qualname = f"{node.name}.{stmt.name}"
            sig = _sig_from_args(
                module, qualname, stmt.args, drop_first=True
            )
            self.methods[(module, node.name, stmt.name)] = sig
            if not stmt.name.startswith("_"):
                self.by_method_name.setdefault(
                    stmt.name, []
                ).append(sig)
            if stmt.name == "__init__":
                saw_init = True
                self.constructors[(module, node.name)] = sig
        if not saw_init and _is_dataclass_decorated(node):
            self.constructors[(module, node.name)] = _dataclass_ctor(
                module, node
            )


def build_index(
    contexts: List[FileContext], tests_root: Optional[Path] = None
) -> SignatureIndex:
    index = SignatureIndex(tests_root=tests_root)
    for ctx in contexts:
        index.add_module(ctx)
    return index
