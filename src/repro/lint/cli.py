"""``repro lint`` / ``python -m repro.lint`` — the analyzer CLI.

Exit codes: 0 clean (at the ``--fail-on`` gate), 1 findings at or
above the gate, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.engine import (
    changed_files,
    collect_files,
    run_lint,
)
from repro.lint.findings import REGISTRY, Severity
from repro.lint.report import render_json, render_text
from repro.lint.sarif import render_sarif


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Domain-aware static analysis: unit discipline (flow-"
            "sensitive), simulation determinism, lock regions, RNG "
            "lockstep, oracle coverage, interface hygiene."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint "
        "(default: src/repro, else .)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--fail-on",
        choices=["error", "warning", "never"],
        default="error",
        help="lowest severity that makes the exit code non-zero",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule-id prefixes to keep "
        "(e.g. RL1,RL301)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule-id prefixes to drop",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        metavar="REF",
        help="only lint files modified vs the git ref "
        "(default HEAD) plus untracked files",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="drop findings recorded in this baseline file; "
        "remaining findings gate the exit code (the ratchet)",
    )
    parser.add_argument(
        "--update-baseline",
        metavar="FILE",
        help="write all current findings to FILE as accepted debt "
        "and exit 0",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule counts to text output",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    return parser


def _split(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    return parts or None


def _default_paths() -> List[str]:
    return ["src/repro"] if Path("src/repro").is_dir() else ["."]


def _scope_to_changed(
    paths: List[str], ref: str
) -> Optional[List[str]]:
    """Restrict ``paths`` to files changed vs ``ref``.

    Returns ``None`` when nothing in scope changed.
    """
    modified = changed_files(ref)
    scoped = [
        str(path)
        for path in collect_files(paths)
        if path.resolve() in modified
    ]
    return scoped or None


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(REGISTRY):
            rule = REGISTRY[rule_id]
            print(
                f"{rule.rule_id} {rule.name} "
                f"[{rule.severity}] — {rule.summary}"
            )
        return 0

    paths = args.paths or _default_paths()
    try:
        if args.changed is not None:
            scoped = _scope_to_changed(paths, args.changed)
            if scoped is None:
                print(
                    f"repro lint: no files changed vs "
                    f"{args.changed}"
                )
                return 0
            paths = scoped
        result = run_lint(
            paths,
            select=_split(args.select),
            ignore=_split(args.ignore),
        )
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        write_baseline(Path(args.update_baseline), result.findings)
        print(
            f"repro lint: wrote {len(result.findings)} finding(s) "
            f"to {args.update_baseline}"
        )
        return 0

    if args.baseline:
        try:
            accepted = load_baseline(Path(args.baseline))
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        fresh, absorbed = apply_baseline(result.findings, accepted)
        result.findings = fresh
        result.baselined = absorbed

    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, statistics=args.statistics))

    if args.fail_on == "never":
        return 0
    threshold = Severity.parse(args.fail_on)
    return 1 if result.worst_at_or_above(threshold) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
