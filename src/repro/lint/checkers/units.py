"""RL1 — unit discipline, statement-level and flow-sensitive.

The statement-level rules read units straight off identifier
suffixes:

- RL101 flags a call argument whose name carries one unit suffix
  binding to a parameter that carries a different one (``freq_mhz``
  passed to ``freq_hz``). Signatures are resolved syntactically
  across the ``repro`` package: module functions, ``self.`` methods,
  class constructors (including dataclasses), and imported names.
- RL102 flags log-domain arithmetic that is dimensionally wrong by
  construction: adding two absolute dBm powers, and ``+``/``-``
  between two different scales of the same dimension.

The flow-sensitive rules run the unit lattice through the CFG
(:mod:`repro.lint.cfg` + :mod:`repro.lint.dataflow`), so a dBm value
laundered through an unsuffixed temporary is still caught:

- RL103 flags arithmetic (and suffixed-assignment) violations where
  at least one operand's unit was *inferred* through assignments,
  tuple unpacking, passthrough builtins, or the unit algebra —
  ``power = lookup_dbm(); total = power + other_dbm``.
- RL104 flags an inferred-unit argument bound to a parameter with a
  conflicting suffix.
- RL105 flags a ``return`` whose inferred unit contradicts the unit
  promised by the function's own name suffix (scale or dimension
  conflicts; relative-vs-absolute level mixes stay legal gain math).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.cfg import (
    BIND,
    ITER,
    STMT,
    TEST,
    WITH_ENTER,
    Cfg,
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
from repro.lint.resolve import dotted
from repro.lint.signatures import FunctionSig, SignatureIndex
from repro.lint.units import (
    VIOLATION_ABSOLUTE_ADD,
    VIOLATION_DIMENSION_MIX,
    combine_add_sub,
    dimension,
    expr_unit,
    infer_expr,
    label,
    unit_suffix,
)

RL101 = register_rule(
    "RL101",
    "unit-mismatch-arg",
    Severity.ERROR,
    "argument with one unit suffix bound to a parameter with "
    "another",
)

RL102 = register_rule(
    "RL102",
    "unit-mismatch-arith",
    Severity.ERROR,
    "arithmetic mixing incompatible unit suffixes (dBm+dBm, "
    "Hz with MHz, ...)",
)

RL103 = register_rule(
    "RL103",
    "unit-flow-arith",
    Severity.ERROR,
    "flow-inferred unit makes this arithmetic or assignment "
    "dimensionally wrong",
)

RL104 = register_rule(
    "RL104",
    "unit-flow-arg",
    Severity.ERROR,
    "flow-inferred unit conflicts with the parameter's unit "
    "suffix",
)

RL105 = register_rule(
    "RL105",
    "unit-flow-return",
    Severity.ERROR,
    "returned value's unit contradicts the function name's unit "
    "suffix",
)


def _display(sigs: List[FunctionSig]) -> str:
    if len(sigs) == 1:
        return sigs[0].display
    return (
        f"{sigs[0].qualname.rsplit('.', 1)[-1]} "
        f"({len(sigs)} known implementations)"
    )


def _describe(node: ast.expr) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"
    return text if len(text) <= 40 else text[:37] + "..."


def resolve_call_signatures(
    ctx: FileContext,
    index: SignatureIndex,
    func: ast.expr,
    current_class: Optional[str],
) -> List[FunctionSig]:
    """Candidate signatures for a call target.

    Exactly one candidate when the target resolves statically
    (same-module function, import, ``self.`` method, constructor).
    For instance-method calls on receivers whose type we cannot know
    (``tower.power_at(...)``) every known method of that name is a
    candidate, and binding checks only fire where all candidates
    agree on a parameter's unit.
    """
    module = ctx.module
    imports = ctx.imports
    if isinstance(func, ast.Name):
        name = func.id
        sig = index.functions.get(
            (module, name)
        ) or index.constructors.get((module, name))
        if sig is not None:
            return [sig]
        if name in imports.from_names:
            src, original = imports.from_names[name]
            sig = index.functions.get(
                (src, original)
            ) or index.constructors.get((src, original))
            return [sig] if sig is not None else []
        return []
    if isinstance(func, ast.Attribute):
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and current_class is not None
        ):
            sig = index.methods.get(
                (module, current_class, func.attr)
            )
            if sig is not None:
                return [sig]
        base = dotted(func.value)
        if base is not None:
            if base in imports.module_aliases:
                src = imports.module_aliases[base]
                sig = index.functions.get(
                    (src, func.attr)
                ) or index.constructors.get((src, func.attr))
                if sig is not None:
                    return [sig]
            if base in imports.from_names:
                parent, original = imports.from_names[base]
                src = f"{parent}.{original}"
                sig = index.functions.get(
                    (src, func.attr)
                ) or index.constructors.get((src, func.attr))
                if sig is not None:
                    return [sig]
        return list(index.by_method_name.get(func.attr, []))
    return []


def iter_call_bindings(
    call: ast.Call, sigs: List[FunctionSig]
) -> Iterator[Tuple[str, ast.expr]]:
    """(parameter name, argument expr) pairs we can bind statically.

    Positional slots are bound only where every candidate signature
    agrees on the parameter's unit suffix; keyword arguments only
    when at least one candidate accepts the name.
    """
    if not any(isinstance(a, ast.Starred) for a in call.args):
        for position, arg in enumerate(call.args):
            if any(position >= len(sig.params) for sig in sigs):
                break  # ambiguous arity across candidates
            units = {
                unit_suffix(sig.params[position]) for sig in sigs
            }
            if len(units) != 1 or None in units:
                continue  # candidates disagree: stay silent
            yield sigs[0].params[position], arg
    for keyword in call.keywords:
        if keyword.arg is None:
            continue  # **kwargs forwarding: unreadable
        accepted = any(
            keyword.arg in sig.params
            or keyword.arg in sig.kwonly
            or sig.has_kwarg
            for sig in sigs
        )
        if not accepted:
            continue  # would be a TypeError, not a unit bug
        yield keyword.arg, keyword.value


class UnitsChecker:
    """RL101/RL102 over one file."""

    def check(
        self, ctx: FileContext, index: SignatureIndex
    ) -> List[Finding]:
        findings: List[Finding] = []
        self._walk(ctx, index, ctx.tree, None, findings)
        return findings

    # -- traversal ----------------------------------------------------

    def _walk(
        self,
        ctx: FileContext,
        index: SignatureIndex,
        node: ast.AST,
        current_class: Optional[str],
        findings: List[Finding],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._walk(ctx, index, child, child.name, findings)
                continue
            if isinstance(child, ast.Call):
                sigs = resolve_call_signatures(
                    ctx, index, child.func, current_class
                )
                if sigs:
                    findings.extend(
                        self._check_binding(ctx, child, sigs)
                    )
            elif isinstance(child, ast.BinOp):
                result = self._check_arith(ctx, child)
                if result is not None:
                    findings.append(result)
            self._walk(ctx, index, child, current_class, findings)

    # -- RL101 --------------------------------------------------------

    def _check_binding(
        self,
        ctx: FileContext,
        call: ast.Call,
        sigs: List[FunctionSig],
    ) -> List[Finding]:
        findings: List[Finding] = []
        for param, arg in iter_call_bindings(call, sigs):
            param_unit = unit_suffix(param)
            arg_unit = expr_unit(arg)
            if param_unit is None or arg_unit is None:
                continue
            if param_unit == arg_unit:
                continue
            findings.append(
                finding(
                    RL101,
                    str(ctx.path),
                    call.lineno,
                    call.col_offset + 1,
                    f"`{_describe(arg)}` ({label(arg_unit)}) is "
                    f"bound to parameter `{param}` "
                    f"({label(param_unit)}) of {_display(sigs)}",
                )
            )
        return findings

    # -- RL102 --------------------------------------------------------

    def _check_arith(
        self, ctx: FileContext, node: ast.BinOp
    ) -> Optional[Finding]:
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return None
        left = expr_unit(node.left)
        right = expr_unit(node.right)
        if left is None or right is None:
            return None
        is_add = isinstance(node.op, ast.Add)
        _, violation = combine_add_sub(left, right, is_add)
        if violation is None:
            return None
        operator = "+" if is_add else "-"
        where = (str(ctx.path), node.lineno, node.col_offset + 1)
        if violation == VIOLATION_ABSOLUTE_ADD:
            return finding(
                RL102,
                *where,
                "adding two absolute dBm powers "
                f"(`{_describe(node.left)} + "
                f"{_describe(node.right)}`); power sums in "
                "watts — convert with dbm_to_watts first",
            )
        if violation == VIOLATION_DIMENSION_MIX:
            return finding(
                RL102,
                *where,
                f"`{operator}` between {label(left)} "
                f"(`{_describe(node.left)}`) and {label(right)} "
                f"(`{_describe(node.right)}`) mixes dimensions",
            )
        return finding(
            RL102,
            *where,
            f"`{operator}` between {label(left)} "
            f"(`{_describe(node.left)}`) and {label(right)} "
            f"(`{_describe(node.right)}`) mixes scales; convert "
            "one side first",
        )


class _UnitEnvAnalysis(ForwardAnalysis[Dict[str, str]]):
    """Forward unit inference: local name -> definite unit suffix."""

    def initial(self) -> Dict[str, str]:
        return {}

    def join(
        self, left: Dict[str, str], right: Dict[str, str]
    ) -> Dict[str, str]:
        return {
            name: unit
            for name, unit in left.items()
            if right.get(name) == unit
        }

    def transfer(
        self, state: Dict[str, str], event: Event
    ) -> Dict[str, str]:
        node = event.node
        if not isinstance(
            node, (ast.Assign, ast.AnnAssign, ast.AugAssign)
        ):
            return state
        out = dict(state)
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._bind(out, target, node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._bind(out, node.target, node.value)
        else:  # AugAssign: x op= v behaves like x = x op v
            target = node.target
            if isinstance(target, ast.Name):
                synthetic = ast.BinOp(
                    left=ast.Name(id=target.id, ctx=ast.Load()),
                    op=node.op,
                    right=node.value,
                )
                ast.copy_location(synthetic, node)
                ast.fix_missing_locations(synthetic)
                self._assign_name(out, target.id, synthetic)
        return out

    def _bind(
        self,
        env: Dict[str, str],
        target: ast.expr,
        value: ast.expr,
    ) -> None:
        if isinstance(target, ast.Name):
            self._assign_name(env, target.id, value)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(elts):
                for sub_target, sub_value in zip(elts, value.elts):
                    self._bind(env, sub_target, sub_value)
            else:
                # Unpacking an opaque value: the old bindings for
                # every plain-name target are no longer trustworthy.
                for sub_target in elts:
                    if isinstance(sub_target, ast.Name):
                        env.pop(sub_target.id, None)
            return
        # Attribute/subscript stores are outside the local lattice.

    def _assign_name(
        self, env: Dict[str, str], name: str, value: ast.expr
    ) -> None:
        if unit_suffix(name) is not None:
            # The suffix is authoritative; mismatches are RL103's
            # job during replay, not the environment's.
            return
        unit = infer_expr(value, env)
        if unit is None:
            env.pop(name, None)
        else:
            env[name] = unit


def _violation_message(
    violation: str,
    operator: str,
    left_desc: str,
    left_unit: str,
    right_desc: str,
    right_unit: str,
) -> str:
    if violation == VIOLATION_ABSOLUTE_ADD:
        return (
            f"adding two absolute {label(left_unit)} powers "
            f"(`{left_desc}` + `{right_desc}`, units inferred "
            "through dataflow); power sums in watts"
        )
    if violation == VIOLATION_DIMENSION_MIX:
        return (
            f"`{operator}` between {label(left_unit)} "
            f"(`{left_desc}`) and {label(right_unit)} "
            f"(`{right_desc}`) mixes dimensions (units inferred "
            "through dataflow)"
        )
    return (
        f"`{operator}` between {label(left_unit)} (`{left_desc}`) "
        f"and {label(right_unit)} (`{right_desc}`) mixes scales "
        "(units inferred through dataflow); convert one side first"
    )


class UnitFlowChecker:
    """RL103/RL104/RL105: the unit lattice over the CFG."""

    def check(
        self, ctx: FileContext, index: SignatureIndex
    ) -> List[Finding]:
        findings: List[Finding] = []
        for func, owner in _functions_with_owner(ctx.tree):
            self._check_function(ctx, index, func, owner, findings)
        return findings

    def _check_function(
        self,
        ctx: FileContext,
        index: SignatureIndex,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        owner: Optional[str],
        findings: List[Finding],
    ) -> None:
        cfg: Cfg = build_cfg(func)
        analysis = _UnitEnvAnalysis()
        entry_states = run_forward(cfg, analysis)
        return_unit = unit_suffix(func.name)

        def visit(
            env: Dict[str, str], event: Event, _block: object
        ) -> None:
            # A `with` context expression is walked at WITH_ENTER
            # only: its WITH_EXIT event repeats the same node.
            if event.kind not in (STMT, TEST, ITER, BIND, WITH_ENTER):
                return
            node = event.node
            if isinstance(node, ast.Return):
                self._check_return(
                    ctx, func, return_unit, node, env, findings
                )
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._check_suffixed_assign(
                        ctx, target, node.value, env, findings
                    )
            if event.kind == BIND:
                return  # the iterable was walked as its ITER event
            for expr in _expressions_of(node):
                for sub in walk_same_scope(expr):
                    if isinstance(sub, ast.BinOp):
                        self._check_arith_flow(
                            ctx, sub, env, findings
                        )
                    elif isinstance(sub, ast.Call):
                        self._check_call_flow(
                            ctx, index, owner, sub, env, findings
                        )

        replay(cfg, analysis, entry_states, visit)

    # -- RL103 --------------------------------------------------------

    def _check_arith_flow(
        self,
        ctx: FileContext,
        node: ast.BinOp,
        env: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return
        syn_left = expr_unit(node.left)
        syn_right = expr_unit(node.right)
        if syn_left is not None and syn_right is not None:
            return  # statement-level RL102 already owns this
        left = syn_left or infer_expr(node.left, env)
        right = syn_right or infer_expr(node.right, env)
        if left is None or right is None:
            return
        is_add = isinstance(node.op, ast.Add)
        _, violation = combine_add_sub(left, right, is_add)
        if violation is None:
            return
        findings.append(
            finding(
                RL103,
                str(ctx.path),
                node.lineno,
                node.col_offset + 1,
                _violation_message(
                    violation,
                    "+" if is_add else "-",
                    _describe(node.left),
                    left,
                    _describe(node.right),
                    right,
                ),
            )
        )

    def _check_suffixed_assign(
        self,
        ctx: FileContext,
        target: ast.expr,
        value: ast.expr,
        env: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        if not isinstance(target, ast.Name):
            return
        target_unit = unit_suffix(target.id)
        if target_unit is None:
            return
        value_unit = infer_expr(value, env)
        if value_unit is None or value_unit == target_unit:
            return
        if (
            dimension(target_unit) == "level"
            and dimension(value_unit) == "level"
        ):
            return  # level-family conversions are gain math
        findings.append(
            finding(
                RL103,
                str(ctx.path),
                target.lineno,
                target.col_offset + 1,
                f"`{target.id}` ({label(target_unit)}) is assigned "
                f"a {label(value_unit)} value "
                f"(`{_describe(value)}`, unit inferred through "
                "dataflow)",
            )
        )

    # -- RL104 --------------------------------------------------------

    def _check_call_flow(
        self,
        ctx: FileContext,
        index: SignatureIndex,
        owner: Optional[str],
        call: ast.Call,
        env: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        sigs = resolve_call_signatures(ctx, index, call.func, owner)
        if not sigs:
            return
        for param, arg in iter_call_bindings(call, sigs):
            param_unit = unit_suffix(param)
            if param_unit is None:
                continue
            if expr_unit(arg) is not None:
                continue  # statement-level RL101 owns suffixed args
            arg_unit = infer_expr(arg, env)
            if arg_unit is None or arg_unit == param_unit:
                continue
            if (
                dimension(param_unit) == "level"
                and dimension(arg_unit) == "level"
            ):
                continue  # dB into dBm slots: gain-math idiom
            findings.append(
                finding(
                    RL104,
                    str(ctx.path),
                    call.lineno,
                    call.col_offset + 1,
                    f"`{_describe(arg)}` carries "
                    f"{label(arg_unit)} (inferred through "
                    f"dataflow) but binds to parameter `{param}` "
                    f"({label(param_unit)}) of {_display(sigs)}",
                )
            )

    # -- RL105 --------------------------------------------------------

    def _check_return(
        self,
        ctx: FileContext,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        return_unit: Optional[str],
        node: ast.Return,
        env: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        if return_unit is None or node.value is None:
            return
        value_unit = infer_expr(node.value, env)
        if value_unit is None or value_unit == return_unit:
            return
        if (
            dimension(return_unit) == "level"
            and dimension(value_unit) == "level"
        ):
            return  # relative/absolute level mixes: gain math
        findings.append(
            finding(
                RL105,
                str(ctx.path),
                node.lineno,
                node.col_offset + 1,
                f"`{func.name}` promises {label(return_unit)} by "
                f"its name but returns a {label(value_unit)} value "
                f"(`{_describe(node.value)}`)",
            )
        )


def _functions_with_owner(
    tree: ast.AST,
) -> List[Tuple["ast.FunctionDef | ast.AsyncFunctionDef", Optional[str]]]:
    """Every function in the module with its owning class, if any."""
    out: List[
        Tuple["ast.FunctionDef | ast.AsyncFunctionDef", Optional[str]]
    ] = []

    def descend(node: ast.AST, owner: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                descend(child, child.name)
            elif isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                out.append((child, owner))
                descend(child, None)  # nested defs lose the owner
            else:
                descend(child, owner)

    descend(tree, None)
    return out


def _expressions_of(node: ast.AST) -> List[ast.expr]:
    """Top-level expressions of one statement-like event node."""
    if isinstance(node, ast.expr):
        return [node]
    out: List[ast.expr] = []
    for field_value in ast.iter_child_nodes(node):
        if isinstance(field_value, ast.expr):
            out.append(field_value)
    return out

