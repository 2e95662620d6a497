"""RL6 — every vectorized kernel needs a scalar oracle and a test.

The repo's performance story is "vectorize everything, keep a scalar
oracle, prove equivalence" (docs/vectorization.md). This rule family
makes that contract machine-checked so a new batch kernel cannot land
without its oracle:

- RL601: a public ``*_batch`` function has no scalar oracle. An
  oracle is either a sibling in the same scope (``X`` or
  ``X_scalar`` next to ``X_batch``) or — one hop out — a dispatcher
  anywhere in the indexed tree that has a scalar twin in *its* scope
  and delegates to the kernel (``DirectionalEvaluator.run`` twins
  ``run_scalar`` and calls ``run_directional_scan_batch``).
- RL602: no test references both halves of the kernel/oracle pair.
  An equivalence test must call both, so the pair's names have to
  appear together in at least one test file. The check is
  name-based and purely syntactic; it only runs when the engine
  has a tests tree with a parsable module
  (``SignatureIndex.test_refs``), so hermetic fixture runs stay
  quiet unless they opt in.

Private (``_``-prefixed) kernels are exempt: they are internals of a
public kernel that carries the contract for both.
"""

from __future__ import annotations

from typing import List

from repro.lint.context import FileContext
from repro.lint.findings import (
    Finding,
    Severity,
    finding,
    register_rule,
)
from repro.lint.signatures import (
    FunctionNode,
    SignatureIndex,
    function_scopes,
)

RL601 = register_rule(
    "RL601",
    "batch-kernel-without-oracle",
    Severity.ERROR,
    "vectorized *_batch kernel has no scalar oracle or scalar-twin "
    "dispatcher",
)

RL602 = register_rule(
    "RL602",
    "oracle-pair-without-test",
    Severity.ERROR,
    "no test references the batch kernel and its scalar oracle "
    "together",
)

class OracleCoverageChecker:
    """RL601/RL602 over one file."""

    def check(
        self, ctx: FileContext, index: SignatureIndex
    ) -> List[Finding]:
        findings: List[Finding] = []
        for scope_functions in function_scopes(ctx.tree):
            names = {fn.name for fn in scope_functions}
            for fn in scope_functions:
                if not fn.name.endswith("_batch"):
                    continue
                if fn.name.startswith("_"):
                    continue
                self._check_kernel(ctx, index, fn, names, findings)
        return findings

    def _check_kernel(
        self,
        ctx: FileContext,
        index: SignatureIndex,
        fn: FunctionNode,
        siblings: "set[str]",
        findings: List[Finding],
    ) -> None:
        base = fn.name[: -len("_batch")]
        pair: "tuple[str, str]"
        if base in siblings:
            pair = (fn.name, base)
        elif base + "_scalar" in siblings:
            pair = (fn.name, base + "_scalar")
        else:
            dispatchers = index.scalar_dispatchers.get(fn.name, [])
            if not dispatchers:
                findings.append(
                    finding(
                        RL601,
                        str(ctx.path),
                        fn.lineno,
                        fn.col_offset + 1,
                        f"vectorized kernel `{fn.name}` has no "
                        f"scalar oracle: no `{base}` or "
                        f"`{base}_scalar` sibling, and no "
                        "dispatcher with a scalar twin calls it",
                    )
                )
                return
            pair = dispatchers[0]
        self._check_pair_tested(ctx, index, fn, pair, findings)

    def _check_pair_tested(
        self,
        ctx: FileContext,
        index: SignatureIndex,
        fn: FunctionNode,
        pair: "tuple[str, str]",
        findings: List[Finding],
    ) -> None:
        test_refs = index.test_refs
        if test_refs is None:
            return
        batch_name, oracle_name = pair
        for refs in test_refs:
            if batch_name in refs and oracle_name in refs:
                return
        findings.append(
            finding(
                RL602,
                str(ctx.path),
                fn.lineno,
                fn.col_offset + 1,
                f"no test references `{batch_name}` and "
                f"`{oracle_name}` together; add an equivalence "
                "test calling both",
            )
        )

