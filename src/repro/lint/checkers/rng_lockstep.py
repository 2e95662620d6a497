"""RL5 — RNG draw-order lockstep between scalar and batch kernels.

The vectorized kernels promise bit-identical output to their scalar
oracles, which only holds when both consume the shared RNG stream in
the same order and the same count. Draw counts stay aligned as long
as every draw is unconditional with respect to *sampled values*; the
moment a draw sits behind a branch whose condition depends on an
earlier draw, scalar and batch executions can consume different
counts and silently diverge.

The rules only run inside *paired* functions — a function with a
scalar/batch twin in the same scope (``run``/``run_scalar``,
``X_batch``/``X`` or ``X_scalar``). Unpaired helpers may draw however
they like.

- RL501 (flow-sensitive): an RNG draw control-dependent on an
  RNG-*tainted* ``if``/``while`` condition. Taint propagates through
  assignments, arithmetic, and loop targets via the dataflow
  framework; ``for`` iterables are deliberately not treated as
  guards, because iterating a sampled collection is the sanctioned
  two-pass pattern.
- RL502 (structural): an ``if`` whose arms contain different numbers
  of draw sites under a *data-dependent* condition. Mode-like
  conditions are exempt — parameters, ``self.*`` configuration,
  ALL_CAPS constants, and ``is None`` checks select a code path
  consistently for both kernels. Arms that terminate (``return``,
  ``raise``, ``continue``, ``break``) are exempt: a dispatcher's
  early ``return self.run_scalar(...)`` never interleaves with the
  batch path.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set

from repro.lint.cfg import (
    Block,
    Cfg,
    Event,
    FunctionNode,
    build_cfg,
    walk_same_scope,
)
from repro.lint.context import FileContext
from repro.lint.dataflow import ForwardAnalysis, out_states, run_forward
from repro.lint.findings import (
    Finding,
    Severity,
    finding,
    register_rule,
)
from repro.lint.signatures import (
    SignatureIndex,
    function_scopes,
    scalar_partner,
)

RL501 = register_rule(
    "RL501",
    "rng-draw-under-rng-branch",
    Severity.ERROR,
    "RNG draw control-dependent on an RNG-derived condition in a "
    "scalar/batch pair",
)

RL502 = register_rule(
    "RL502",
    "rng-draw-count-divergence",
    Severity.ERROR,
    "if-arms draw different RNG counts under a data-dependent "
    "condition in a scalar/batch pair",
)

#: Builtins allowed inside a mode-like condition.
_MODE_BUILTINS = frozenset(
    {"len", "bool", "int", "float", "isinstance", "hasattr"}
)

TaintState = FrozenSet[str]


def _is_rng_name(name: str) -> bool:
    lowered = name.lower()
    return (
        lowered == "rng"
        or lowered.endswith("_rng")
        or lowered == "random_state"
    )


def _rng_receiver(node: ast.expr) -> bool:
    """Whether ``node`` is an RNG object (``rng``, ``self._rng``)."""
    if isinstance(node, ast.Name):
        return _is_rng_name(node.id)
    if isinstance(node, ast.Attribute):
        return _is_rng_name(node.attr)
    return False


def _is_draw(node: ast.Call) -> bool:
    """Whether a call consumes from the RNG stream.

    A method call on an RNG object draws directly; a call that is
    *passed* an RNG forwards the stream to the callee, which draws an
    unknown-but-shared count — either way the call site must stay in
    lockstep.
    """
    func = node.func
    if isinstance(func, ast.Attribute) and _rng_receiver(func.value):
        return True
    for arg in node.args:
        if _rng_receiver(arg):
            return True
    for keyword in node.keywords:
        if keyword.value is not None and _rng_receiver(keyword.value):
            return True
    return False


def _draws_in(node: ast.AST) -> List[ast.Call]:
    if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    ):
        return []  # opaque nested-def event: draws run later
    return [
        sub
        for sub in walk_same_scope(node)
        if isinstance(sub, ast.Call) and _is_draw(sub)
    ]


class _TaintAnalysis(ForwardAnalysis[TaintState]):
    """Names holding RNG-derived values; join is union."""

    def initial(self) -> TaintState:
        return frozenset()

    def join(self, left: TaintState, right: TaintState) -> TaintState:
        return left | right

    def transfer(self, state: TaintState, event: Event) -> TaintState:
        node = event.node
        if isinstance(node, ast.Assign):
            return self._assign(state, node.targets, node.value)
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            return self._assign(state, [node.target], node.value)
        if isinstance(node, ast.AugAssign):
            # x op= v: x stays/becomes tainted if x or v is.
            if isinstance(node.target, ast.Name):
                if self.expr_tainted(state, node.value) or (
                    node.target.id in state
                ):
                    return state | {node.target.id}
            return state
        return state

    def _assign(
        self,
        state: TaintState,
        targets: List[ast.expr],
        value: ast.expr,
    ) -> TaintState:
        # Only plain-name (and unpacked-name) targets carry taint.
        # A subscript store (`cache[key] = draw(...)`) deliberately
        # does NOT taint the container name: membership and key
        # tests on it depend on the keys, not the sampled values, so
        # the memoization idiom `if key not in cache: cache[key] =
        # draw(...)` stays in lockstep and must not be flagged.
        tainted = self.expr_tainted(state, value)
        names: Set[str] = set()
        for target in targets:
            names.update(_plain_target_names(target))
        if tainted:
            return state | names
        return state - names

    def expr_tainted(self, state: TaintState, expr: ast.expr) -> bool:
        for sub in walk_same_scope(expr):
            if isinstance(sub, ast.Name) and sub.id in state:
                return True
            if isinstance(sub, ast.Call) and _is_draw(sub):
                return True
        return False


class RngLockstepChecker:
    """RL501/RL502 over one file."""

    def check(
        self, ctx: FileContext, index: SignatureIndex
    ) -> List[Finding]:
        findings: List[Finding] = []
        for scope_functions in function_scopes(ctx.tree):
            names = {fn.name for fn in scope_functions}
            for fn in scope_functions:
                partner = scalar_partner(fn.name, names)
                if partner is None:
                    continue
                self._check_function(ctx, fn, partner, findings)
        return findings

    def _check_function(
        self,
        ctx: FileContext,
        fn: FunctionNode,
        partner: str,
        findings: List[Finding],
    ) -> None:
        cfg = build_cfg(fn)
        analysis = _TaintAnalysis()
        entry_states = run_forward(cfg, analysis)
        exit_states = out_states(cfg, analysis, entry_states)
        all_tainted: Set[str] = set()
        for state in exit_states.values():
            all_tainted.update(state)

        self._check_tainted_guards(
            ctx, fn, partner, cfg, analysis, exit_states, findings
        )
        self._check_arm_balance(
            ctx, fn, partner, all_tainted, findings
        )

    # -- RL501 --------------------------------------------------------

    def _check_tainted_guards(
        self,
        ctx: FileContext,
        fn: FunctionNode,
        partner: str,
        cfg: Cfg,
        analysis: _TaintAnalysis,
        exit_states: Dict[int, TaintState],
        findings: List[Finding],
    ) -> None:
        reported: Set[int] = set()
        for block_id, block in cfg.blocks.items():
            if block_id not in exit_states:
                continue  # unreachable
            tainted_guard = self._tainted_guard(
                block, analysis, exit_states
            )
            if tainted_guard is None:
                continue
            for event in block.events:
                for call in _draws_in(event.node):
                    if id(call) in reported:
                        continue
                    reported.add(id(call))
                    findings.append(
                        finding(
                            RL501,
                            str(ctx.path),
                            call.lineno,
                            call.col_offset + 1,
                            f"`{fn.name}` (paired with "
                            f"`{partner}`) draws from the RNG "
                            "under a condition at line "
                            f"{tainted_guard} that depends on an "
                            "earlier draw; scalar/batch draw "
                            "counts can diverge",
                        )
                    )

    def _tainted_guard(
        self,
        block: Block,
        analysis: _TaintAnalysis,
        exit_states: Dict[int, TaintState],
    ) -> Optional[int]:
        """Line of the first RNG-tainted if/while guard, if any."""
        for guard in block.guards:
            if guard.kind not in ("if", "while"):
                continue  # for-iterables are the sanctioned pattern
            if guard.test is None:
                continue
            state = exit_states.get(guard.block)
            if state is None:
                continue
            if isinstance(
                guard.test, ast.expr
            ) and analysis.expr_tainted(state, guard.test):
                return getattr(guard.test, "lineno", 0)
        return None

    # -- RL502 --------------------------------------------------------

    def _check_arm_balance(
        self,
        ctx: FileContext,
        fn: FunctionNode,
        partner: str,
        tainted: Set[str],
        findings: List[Finding],
    ) -> None:
        params = _parameter_names(fn)
        mode_locals = _mode_locals(fn, params)
        for node in walk_same_scope(fn):
            if not isinstance(node, ast.If):
                continue
            if _is_mode_like(node.test, params, mode_locals):
                continue
            if _test_mentions(node.test, tainted):
                continue  # RL501 owns RNG-tainted conditions
            if _is_memoized_draw(node):
                continue  # `if k not in cache: cache[k] = draw()`
            if _terminates(node.body) or (
                node.orelse and _terminates(node.orelse)
            ):
                continue
            body_draws = _count_arm_draws(node.body)
            else_draws = _count_arm_draws(node.orelse)
            if body_draws == else_draws:
                continue
            findings.append(
                finding(
                    RL502,
                    str(ctx.path),
                    node.lineno,
                    node.col_offset + 1,
                    f"`{fn.name}` (paired with `{partner}`) draws "
                    f"{body_draws} time(s) in one arm and "
                    f"{else_draws} in the other under a "
                    "data-dependent condition; scalar/batch draw "
                    "counts can diverge",
                )
            )


def _plain_target_names(target: ast.expr) -> Set[str]:
    """Name targets of an assignment, through tuple/list unpacking."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: Set[str] = set()
        for elt in target.elts:
            names.update(_plain_target_names(elt))
        return names
    if isinstance(target, ast.Starred):
        return _plain_target_names(target.value)
    return set()


def _parameter_names(fn: FunctionNode) -> Set[str]:
    args = fn.args
    names = {
        a.arg
        for a in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
        ]
    }
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _mode_locals(fn: FunctionNode, params: Set[str]) -> Set[str]:
    """Locals assigned only from mode-like expressions.

    ``shared_medium = self.interference_enabled()`` is configuration,
    not data; conditions on it select the same path for the scalar
    and batch kernels alike.
    """
    mode: Set[str] = set()
    disqualified: Set[str] = set()
    for node in walk_same_scope(fn):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if _is_mode_like(node.value, params, mode):
                if target.id not in disqualified:
                    mode.add(target.id)
            else:
                mode.discard(target.id)
                disqualified.add(target.id)
    return mode


def _is_mode_like(
    test: ast.expr, params: Set[str], mode_locals: Set[str]
) -> bool:
    if isinstance(test, ast.Constant):
        return True
    if isinstance(test, ast.Name):
        return (
            test.id in params
            or test.id in mode_locals
            or test.id.isupper()
        )
    if isinstance(test, ast.Attribute):
        root: ast.expr = test
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if isinstance(root, ast.Name):
            return root.id == "self" or _is_mode_like(
                root, params, mode_locals
            )
        return False
    if isinstance(test, ast.UnaryOp):
        return _is_mode_like(test.operand, params, mode_locals)
    if isinstance(test, ast.BoolOp):
        return all(
            _is_mode_like(v, params, mode_locals) for v in test.values
        )
    if isinstance(test, ast.Compare):
        if any(
            isinstance(op, (ast.Is, ast.IsNot))
            for op in test.ops
        ) and any(
            isinstance(c, ast.Constant) and c.value is None
            for c in test.comparators
        ):
            return True  # `x is None`: presence checks are modes
        return all(
            _is_mode_like(v, params, mode_locals)
            for v in [test.left, *test.comparators]
        )
    if isinstance(test, ast.Call):
        func_ok = (
            isinstance(test.func, ast.Name)
            and test.func.id in _MODE_BUILTINS
        ) or _is_mode_like(test.func, params, mode_locals)
        return func_ok and all(
            _is_mode_like(a, params, mode_locals) for a in test.args
        )
    if isinstance(test, ast.Subscript):
        return _is_mode_like(
            test.value, params, mode_locals
        ) and _is_mode_like(test.slice, params, mode_locals)
    return False


def _is_memoized_draw(node: ast.If) -> bool:
    """The sanctioned memoization idiom.

    ``if key not in cache: cache[key] = draw(...)`` draws a count
    determined by the (deterministic) key sequence, not by sampled
    values — both kernels of a pair replay the same cache misses, so
    their draw counts stay aligned. Recognized when the test is a
    single ``not in`` against a plain name and every draw in the body
    is stored straight into that container.
    """
    test = node.test
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.NotIn)
        and isinstance(test.comparators[0], ast.Name)
    ):
        return False
    if node.orelse:
        return False
    container = test.comparators[0].id
    saw_draw = False
    for stmt in node.body:
        if not _draws_in(stmt):
            continue
        saw_draw = True
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Subscript)
            and isinstance(stmt.targets[0].value, ast.Name)
            and stmt.targets[0].value.id == container
        ):
            return False
    return saw_draw


def _test_mentions(test: ast.expr, names: Set[str]) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id in names
        for sub in walk_same_scope(test)
    )


def _terminates(body: List[ast.stmt]) -> bool:
    """Whether a statement list always leaves the enclosing region."""
    if not body:
        return False
    last = body[-1]
    if isinstance(
        last, (ast.Return, ast.Raise, ast.Continue, ast.Break)
    ):
        return True
    if isinstance(last, ast.If) and last.orelse:
        return _terminates(last.body) and _terminates(last.orelse)
    return False


def _count_arm_draws(body: List[ast.stmt]) -> int:
    count = 0
    for stmt in body:
        count += len(_draws_in(stmt))
    return count
