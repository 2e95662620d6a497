"""Per-file parse context: AST, module name, imports, suppressions.

Suppression syntax (comments, matched case-insensitively):

- ``# repro-lint: disable=RL101`` — suppress the named rule(s) on
  this line (for a multi-line statement, the line the finding is
  reported on — the first line of the offending node).
- ``# repro-lint: disable=RL101,RL301`` — several rules at once.
- ``# repro-lint: disable=all`` — every rule on this line.
- ``# repro-lint: disable-file=RL201`` — suppress for the whole
  file, wherever the comment appears (conventionally at the top).

A rule-id prefix also matches: ``disable=RL3`` covers RL301 and
RL302. Suppressed findings are counted, never silently dropped.

Suppressions are read on the first :meth:`FileContext.is_suppressed`
call, so a file without findings is never tokenized; a file whose
source never matches the marker is not tokenized either.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Dict, FrozenSet, Set, Tuple

from repro.lint.resolve import ImportMap, build_import_map

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*"
    r"(all|[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)",
    re.IGNORECASE,
)


@dataclass
class FileContext:
    """One parsed source file plus everything checkers need."""

    path: Path
    source: str
    tree: ast.Module
    module: str

    @property
    def scope_parts(self) -> FrozenSet[str]:
        """Lowercased path and module components, for rule scoping.

        A rule scoped to e.g. ``stream`` applies when any directory
        or dotted-module component is named ``stream`` — so both
        ``src/repro/stream/broker.py`` and a test fixture under
        ``fixtures/stream/`` are in scope.
        """
        parts = {p.lower() for p in self.path.parts}
        parts.update(p.lower() for p in self.module.split("."))
        return frozenset(parts)

    @cached_property
    def imports(self) -> ImportMap:
        """The file's import bindings, shared by every checker."""
        return build_import_map(self.tree)

    @cached_property
    def _disables(self) -> "Tuple[Dict[int, Set[str]], Set[str]]":
        return _scan_suppressions(self.source)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is disabled at ``line`` in this file."""
        rule_id = rule_id.upper()
        line_disables, file_disables = self._disables

        def matches(disables: Set[str]) -> bool:
            return any(
                d == "ALL" or rule_id.startswith(d) for d in disables
            )

        if matches(file_disables):
            return True
        return matches(line_disables.get(line, set()))


def module_name_for(path: Path) -> str:
    """Dotted module name, walking up through ``__init__.py`` dirs."""
    path = path.resolve()
    parts = [] if path.name == "__init__.py" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if parts else path.stem


def _scan_suppressions(
    source: str,
) -> "Tuple[Dict[int, Set[str]], Set[str]]":
    """Collect per-line and per-file disables from comments."""
    line_disables: Dict[int, Set[str]] = {}
    file_disables: Set[str] = set()
    if _SUPPRESS_RE.search(source) is None:
        # No marker anywhere, so none in a comment either.
        return line_disables, file_disables
    reader = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return line_disables, file_disables
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        kind = match.group(1).lower()
        rules = {r.strip().upper() for r in match.group(2).split(",")}
        if kind == "disable-file":
            file_disables.update(rules)
        else:
            row = tok.start[0]
            line_disables.setdefault(row, set()).update(rules)
    return line_disables, file_disables


#: Parsed files of this process by resolved path, each with the
#: ``(st_mtime_ns, st_size)`` it was parsed at.
_PARSED: Dict[Path, Tuple[Tuple[int, int], FileContext]] = {}


def parse_file(path: Path) -> FileContext:
    """Read and parse one file; raises ``SyntaxError`` on bad source.

    Memoised per process: a file whose modification time and size
    are unchanged since its last parse is not read or parsed again
    (the package signature index parses every ``repro`` file on each
    lint run). Checkers only read contexts, so one is shared; a
    different spelling of the same path gets a copy that carries it.
    """
    resolved = path.resolve()
    st = resolved.stat()
    stamp = (st.st_mtime_ns, st.st_size)
    hit = _PARSED.get(resolved)
    if hit is not None and hit[0] == stamp:
        ctx = hit[1]
        return ctx if ctx.path == path else replace(ctx, path=path)
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    ctx = FileContext(
        path=path,
        source=source,
        tree=tree,
        module=module_name_for(path),
    )
    _PARSED[resolved] = (stamp, ctx)
    return ctx
