"""Orchestration: collect files, build the index, run checkers.

Two passes. Pass one parses every target file *plus* the whole
installed ``repro`` package, once each, and records callable
signatures, so unit binding resolves across module boundaries even
when only a subset is being linted. Pass two runs every rule family
over each target and filters the results through suppressions and
``--select``/``--ignore``. Suppression comments and the tests tree
are read only when a finding needs them.
"""

from __future__ import annotations

import subprocess
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.lint.checkers import all_checkers
from repro.lint.context import FileContext, parse_file
from repro.lint.findings import (
    Finding,
    Severity,
    finding,
    register_rule,
)
from repro.lint.signatures import SignatureIndex, build_index

RL000 = register_rule(
    "RL000",
    "parse-error",
    Severity.ERROR,
    "file could not be parsed",
)


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding]
    files: List[str]
    suppressed: int = 0
    #: Findings absorbed by a committed baseline (ratchet debt).
    baselined: int = 0

    @property
    def per_rule(self) -> Dict[str, int]:
        return dict(Counter(f.rule_id for f in self.findings))

    @property
    def error_count(self) -> int:
        return sum(
            1
            for f in self.findings
            if f.severity is Severity.ERROR
        )

    @property
    def warning_count(self) -> int:
        return sum(
            1
            for f in self.findings
            if f.severity is Severity.WARNING
        )

    def worst_at_or_above(
        self, threshold: Severity
    ) -> bool:
        return any(
            f.severity >= threshold for f in self.findings
        )


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises ``FileNotFoundError`` for a path that does not exist.
    """
    out: List[Path] = []
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: List[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file: {raw}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return out


def _package_files() -> List[Path]:
    """Every source file of the installed ``repro`` package."""
    package_root = Path(__file__).resolve().parents[1]
    return sorted(package_root.rglob("*.py"))


def _matches(rule_id: str, prefixes: Sequence[str]) -> bool:
    rule_id = rule_id.upper()
    return any(rule_id.startswith(p.upper()) for p in prefixes)


def _discover_tests_root(targets: Sequence[Path]) -> Optional[Path]:
    """The repo's ``tests/`` tree, found from the lint targets.

    Walks up from the first target to the directory holding
    ``pyproject.toml``; its ``tests/`` subdirectory — if present —
    is the tree whose name references feed the RL6 coverage rule.
    """
    start = (
        targets[0].resolve() if targets else Path.cwd().resolve()
    )
    for parent in [start, *start.parents]:
        if (parent / "pyproject.toml").is_file():
            tests = parent / "tests"
            return tests if tests.is_dir() else None
    return None


def changed_files(
    ref: str = "HEAD", cwd: Optional[Path] = None
) -> Set[Path]:
    """Files modified vs ``ref`` plus untracked files, resolved.

    Backs ``repro lint --changed``. Raises ``RuntimeError`` when git
    is unavailable or the ref does not resolve.
    """
    root = cwd or Path.cwd()
    commands = [
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ]
    out: Set[Path] = set()
    for command in commands:
        try:
            proc = subprocess.run(
                command,
                cwd=str(root),
                capture_output=True,
                text=True,
                check=False,
            )
        except OSError as exc:  # pragma: no cover - git missing
            raise RuntimeError(f"git unavailable: {exc}") from exc
        if proc.returncode != 0:
            message = proc.stderr.strip() or "git failed"
            raise RuntimeError(
                f"`{' '.join(command)}`: {message}"
            )
        # Paths are reported relative to the repo root, which need
        # not be the working directory; resolve via git's toplevel.
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=str(root),
            capture_output=True,
            text=True,
            check=False,
        )
        base = (
            Path(top.stdout.strip())
            if top.returncode == 0 and top.stdout.strip()
            else root
        )
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line:
                out.add((base / line).resolve())
    return out


def run_lint(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    index_package: bool = True,
    tests_root: Optional[str] = None,
) -> LintResult:
    """Lint ``paths`` and return the filtered findings.

    ``select``/``ignore`` are rule-id prefixes (``RL1`` covers the
    whole unit family). ``index_package=False`` restricts signature
    resolution to the target files themselves — used by fixture
    tests to stay hermetic; it also disables tests-tree discovery,
    so the RL602 coverage rule only runs in hermetic mode when
    ``tests_root`` is passed explicitly.
    """
    targets = collect_files(paths)

    contexts: List[FileContext] = []
    parse_failures: List[Finding] = []
    for path in targets:
        try:
            ctx = parse_file(path)
        except (SyntaxError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", None) or 1
            parse_failures.append(
                finding(
                    RL000, str(path), int(line), 1, str(exc)
                )
            )
            continue
        contexts.append(ctx)

    index_contexts = list(contexts)
    if index_package:
        targeted = {path.resolve() for path in targets}
        for path in _package_files():
            if path in targeted:  # package paths are resolved
                continue
            try:
                index_contexts.append(parse_file(path))
            except (SyntaxError, UnicodeDecodeError):
                continue  # reported as RL000 when it is a target
    tests_dir: Optional[Path] = None
    if tests_root is not None:
        tests_dir = Path(tests_root)
    elif index_package:
        tests_dir = _discover_tests_root(targets)
    index: SignatureIndex = build_index(index_contexts, tests_dir)

    raw: List[Finding] = list(parse_failures)
    suppressed = 0
    checkers = all_checkers()
    for ctx in contexts:
        for checker in checkers:
            for result in checker.check(ctx, index):
                if ctx.is_suppressed(
                    result.rule_id, result.line
                ):
                    suppressed += 1
                else:
                    raw.append(result)

    if select:
        raw = [f for f in raw if _matches(f.rule_id, select)]
    if ignore:
        raw = [
            f for f in raw if not _matches(f.rule_id, ignore)
        ]

    raw.sort(key=lambda f: f.sort_key)
    return LintResult(
        findings=raw,
        files=[str(p) for p in targets],
        suppressed=suppressed,
    )
