"""RL2 — determinism in simulation and streaming code.

The evaluation substitutes deterministic simulators for live
aircraft and towers, and the stream subsystem runs on a virtual
clock; a stray wall-clock read or global-RNG draw silently breaks
reproducibility. Inside the simulation-scoped packages
(``airspace``, ``environment``, ``rf``, ``fm``, ``adsb``,
``stream``, ``experiments``):

- RL201 forbids ``time.time``/``time.monotonic`` (and their ``_ns``
  twins) and ``datetime.now``/``utcnow``/``today`` — simulated time
  must come from the virtual clock that callers thread through.
  ``time.perf_counter`` stays legal: it only feeds latency metrics,
  never simulated state.
- RL202 forbids the process-global ``random`` module functions,
  no-arg ``random.Random()``, and the legacy ``numpy.random.*``
  global API (``np.random.seed``/``rand``/...). Seeded
  ``random.Random(seed)`` and ``numpy.random.default_rng`` /
  ``Generator`` / ``SeedSequence`` are the sanctioned sources.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional

from repro.lint.context import FileContext
from repro.lint.findings import (
    Finding,
    Severity,
    finding,
    register_rule,
)
from repro.lint.resolve import canonical_call
from repro.lint.signatures import SignatureIndex

RL201 = register_rule(
    "RL201",
    "wall-clock-in-simulation",
    Severity.ERROR,
    "wall-clock read inside a simulation/stream module; use the "
    "virtual clock",
)

RL202 = register_rule(
    "RL202",
    "unseeded-random",
    Severity.ERROR,
    "global/unseeded RNG inside a simulation/stream module; use a "
    "seeded Generator",
)

#: Packages where simulated time and seeded RNGs are mandatory.
SIM_SCOPES: FrozenSet[str] = frozenset(
    {
        "airspace",
        "environment",
        "rf",
        "fm",
        "adsb",
        "stream",
        "experiments",
        "interference",
    }
)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: The modern, seedable parts of ``numpy.random`` stay legal.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


class DeterminismChecker:
    """RL201/RL202 over one file."""

    def check(
        self, ctx: FileContext, index: SignatureIndex
    ) -> List[Finding]:
        if not (SIM_SCOPES & ctx.scope_parts):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canon = canonical_call(ctx.imports, node.func)
            if canon is None:
                continue
            result = self._classify(ctx, node, canon)
            if result is not None:
                findings.append(result)
        return findings

    def _classify(
        self, ctx: FileContext, node: ast.Call, canon: str
    ) -> Optional[Finding]:
        where = (str(ctx.path), node.lineno, node.col_offset + 1)
        if canon in _WALL_CLOCK:
            return finding(
                RL201,
                *where,
                f"`{canon}()` reads the wall clock inside a "
                "simulation/stream module; take the time from the "
                "virtual clock (a `now_s`/`time_s` argument)",
            )
        module, _, attr = canon.rpartition(".")
        if module == "random":
            if attr in _RANDOM_FUNCS:
                return finding(
                    RL202,
                    *where,
                    f"`random.{attr}()` draws from the process-"
                    "global RNG; use a seeded `random.Random(seed)` "
                    "or `numpy.random.default_rng(seed)`",
                )
            if attr == "Random" and not node.args:
                return finding(
                    RL202,
                    *where,
                    "`random.Random()` without a seed is "
                    "OS-entropy-seeded; pass an explicit seed",
                )
        if (
            module == "numpy.random"
            and attr not in _NP_RANDOM_ALLOWED
        ):
            hint = (
                "re-seeds the global numpy RNG"
                if attr == "seed"
                else "draws from the legacy global numpy RNG"
            )
            return finding(
                RL202,
                *where,
                f"`numpy.random.{attr}()` {hint}; use "
                "`numpy.random.default_rng(seed)` and pass the "
                "Generator down",
            )
        return None
