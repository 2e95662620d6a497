"""RL3 — path-sensitive lock regions in the threaded layers.

For classes in ``runtime``/``stream``/``serve`` modules that own a
``threading.Lock``/``RLock``, the checker runs a *definitely-held*
lock-set lattice over each method's CFG: ``with self._lock:`` and
explicit ``acquire()`` grow the set, block exit and ``release()``
shrink it, and joins intersect — a lock is held at a point only when
it is held on **every** path reaching it.

- RL301 flags mutation of ``self`` state in a *public* method at any
  point where no owned guard is definitely held — direct assignment,
  augmented assignment, subscript stores, deletes, and mutating
  container calls (``self._items.append(...)``). Because the lattice
  is path-sensitive, a conditional ``acquire()`` or a mutation after
  the ``with`` block closes is caught, and a mutation on the one
  unlocked path through a diamond is not masked by the locked path.
  Private helpers (leading underscore) are exempt by repo
  convention: they document that the caller already holds the lock
  (e.g. ``BoundedQueue._append``).
- RL302 flags calls that run user code or I/O while any guard is
  definitely held — ``print``, ``logging``/``logger`` calls, and
  callback/hook/listener invocations — a classic deadlock and
  latency trap. Condition-variable ``notify``/``notify_all`` are of
  course legal under the lock.
"""

from __future__ import annotations

import ast
import re
from typing import FrozenSet, List, Optional, Set

from repro.lint.cfg import (
    BIND,
    STMT,
    WITH_ENTER,
    WITH_EXIT,
    Block,
    Event,
    build_cfg,
    walk_same_scope,
)
from repro.lint.context import FileContext
from repro.lint.dataflow import ForwardAnalysis, replay, run_forward
from repro.lint.findings import (
    Finding,
    Severity,
    finding,
    register_rule,
)
from repro.lint.resolve import (
    ImportMap,
    canonical_call,
    dotted,
)
from repro.lint.signatures import SignatureIndex

RL301 = register_rule(
    "RL301",
    "unlocked-shared-mutation",
    Severity.ERROR,
    "shared state mutated on a path where the owning lock is not "
    "held",
)

RL302 = register_rule(
    "RL302",
    "call-while-holding-lock",
    Severity.WARNING,
    "callback/logging invoked while holding a lock",
)

#: Only the threaded layers are in scope.
LOCK_SCOPES: FrozenSet[str] = frozenset(
    {"runtime", "stream", "serve"}
)

_LOCK_FACTORIES = frozenset({"threading.Lock", "threading.RLock"})
_GUARD_FACTORIES = _LOCK_FACTORIES | {"threading.Condition"}

_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
    }
)

_CALLBACK_RE = re.compile(
    r"^on_|_on_|callback|hook|listener|subscriber"
)
_LOGGING_BASES = frozenset({"logging", "logger", "log"})
_INIT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

LockState = FrozenSet[str]


def _root_is_self(node: ast.expr) -> bool:
    """Whether an attribute/subscript chain is rooted at ``self``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


def _guard_attr(node: ast.expr, guards: Set[str]) -> Optional[str]:
    """The guard attribute named by ``self.<attr>``, if any."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in guards
    ):
        return node.attr
    return None


class _LockSetAnalysis(ForwardAnalysis[LockState]):
    """Definitely-held guard attributes; join is intersection."""

    def __init__(self, guards: Set[str]):
        self.guards = guards

    def initial(self) -> LockState:
        return frozenset()

    def join(self, left: LockState, right: LockState) -> LockState:
        return left & right

    def transfer(self, state: LockState, event: Event) -> LockState:
        node = event.node
        if event.kind == WITH_ENTER and isinstance(node, ast.expr):
            attr = _guard_attr(node, self.guards)
            if attr is not None:
                return state | {attr}
            return state
        if event.kind == WITH_EXIT and isinstance(node, ast.expr):
            attr = _guard_attr(node, self.guards)
            if attr is not None:
                return state - {attr}
            return state
        # Explicit self._lock.acquire() / .release() calls.
        if isinstance(node, ast.Expr) and isinstance(
            node.value, ast.Call
        ):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "acquire",
                "release",
            ):
                attr = _guard_attr(func.value, self.guards)
                if attr is not None:
                    if func.attr == "acquire":
                        return state | {attr}
                    return state - {attr}
        return state


class ConcurrencyChecker:
    """RL301/RL302 over one file."""

    def check(
        self, ctx: FileContext, index: SignatureIndex
    ) -> List[Finding]:
        if not (LOCK_SCOPES & ctx.scope_parts):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(ctx, node, findings)
        return findings

    # -- per-class ----------------------------------------------------

    def _check_class(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        findings: List[Finding],
    ) -> None:
        locks, guards = self._guard_attrs(ctx.imports, cls)
        if not locks:
            return
        for stmt in cls.body:
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if stmt.name in _INIT_METHODS:
                continue
            self._check_method(
                ctx,
                cls.name,
                stmt,
                guards,
                check_mutations=not _is_private(stmt.name),
                findings=findings,
            )

    def _guard_attrs(
        self, imports: ImportMap, cls: ast.ClassDef
    ) -> "tuple[Set[str], Set[str]]":
        """Names of ``self`` attributes holding locks/conditions."""
        locks: Set[str] = set()
        guards: Set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            canon = canonical_call(imports, node.value.func)
            if canon not in _GUARD_FACTORIES:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    guards.add(target.attr)
                    if canon in _LOCK_FACTORIES:
                        locks.add(target.attr)
        return locks, guards

    # -- per-method dataflow -----------------------------------------

    def _check_method(
        self,
        ctx: FileContext,
        class_name: str,
        method: "ast.FunctionDef | ast.AsyncFunctionDef",
        guards: Set[str],
        check_mutations: bool,
        findings: List[Finding],
    ) -> None:
        cfg = build_cfg(method)
        analysis = _LockSetAnalysis(guards)
        entry_states = run_forward(cfg, analysis)

        def visit(
            held: LockState, event: Event, _block: Block
        ) -> None:
            node = event.node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return  # nested defs run later, under unknown locking
            if not held and check_mutations and event.kind in (
                STMT,
                BIND,
            ):
                if isinstance(node, ast.stmt):
                    self._check_mutation(
                        ctx, class_name, method.name, node, findings
                    )
            if held and event.kind not in (BIND, WITH_EXIT):
                # Both repeat a node already visited: a loop target's
                # value is the ITER event's iterable, and a with-exit
                # holds the context expression called at its enter.
                for call in walk_same_scope(node):
                    if isinstance(call, ast.Call):
                        self._check_locked_call(
                            ctx, class_name, method.name, call, findings
                        )

        replay(cfg, analysis, entry_states, visit)

    # -- RL301 --------------------------------------------------------

    def _check_mutation(
        self,
        ctx: FileContext,
        class_name: str,
        method: str,
        stmt: ast.stmt,
        findings: List[Finding],
    ) -> None:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value:
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            if isinstance(
                target, (ast.Attribute, ast.Subscript)
            ) and _root_is_self(target):
                findings.append(
                    finding(
                        RL301,
                        str(ctx.path),
                        stmt.lineno,
                        stmt.col_offset + 1,
                        f"{class_name}.{method} mutates "
                        f"`{ast.unparse(target)}` on a path where "
                        "`self._lock` is not held in a lock-owning "
                        "class",
                    )
                )
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Call
        ):
            func = stmt.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
                and _root_is_self(func.value)
            ):
                findings.append(
                    finding(
                        RL301,
                        str(ctx.path),
                        stmt.lineno,
                        stmt.col_offset + 1,
                        f"{class_name}.{method} calls "
                        f"`{ast.unparse(func)}(...)` on a path "
                        "where `self._lock` is not held in a "
                        "lock-owning class",
                    )
                )

    # -- RL302 --------------------------------------------------------

    def _check_locked_call(
        self,
        ctx: FileContext,
        class_name: str,
        method: str,
        node: ast.Call,
        findings: List[Finding],
    ) -> None:
        reason = self._locked_call_reason(node.func)
        if reason is None:
            return
        findings.append(
            finding(
                RL302,
                str(ctx.path),
                node.lineno,
                node.col_offset + 1,
                f"{class_name}.{method} invokes {reason} while "
                "holding the lock; move it outside the critical "
                "section",
            )
        )

    @staticmethod
    def _locked_call_reason(func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name):
            if func.id == "print":
                return "`print` (blocking I/O)"
            if _CALLBACK_RE.search(func.id):
                return f"callback `{func.id}`"
            return None
        if isinstance(func, ast.Attribute):
            path = dotted(func)
            if path is not None:
                first = path.split(".", 1)[0]
                base = path.rsplit(".", 2)
                owner = base[-2] if len(base) >= 2 else ""
                if (
                    first in _LOGGING_BASES
                    or owner.lstrip("_") in _LOGGING_BASES
                ):
                    return f"logging call `{path}`"
            if _CALLBACK_RE.search(func.attr):
                return f"callback `{func.attr}`"
        return None

