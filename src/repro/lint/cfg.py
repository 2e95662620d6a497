"""Control-flow graphs over function bodies.

The flow-sensitive rule families (unit inference, lock regions, RNG
lockstep) all need the same substrate: basic blocks of straight-line
*events* connected by edges that follow branches, loops, ``with``
blocks, ``try``/``except``, and early exits. This module builds that
graph purely syntactically — nothing is imported or executed.

Design notes:

- An :class:`Event` is one analysis-relevant step inside a block: a
  simple statement, a branch test, a loop iterable, a loop target's
  binding, or the enter/exit of a ``with`` context. Checkers
  pattern-match on the event kind.
- Every block carries the *structural guard stack* under which it
  executes — the chain of branch/loop conditions that dominate it in
  the source. Guards make control dependence cheap to query without
  a postdominator computation; statements placed after a conditional
  ``continue``/``return`` deliberately do not inherit that guard
  (the approximation documented in ``docs/linting.md``).
- ``try`` bodies are approximated conservatively: every block of the
  body gets an edge to each handler, so a handler joins the states
  of all partial executions of the body.
- A ``return``/``raise`` edge goes straight to the exit block. A
  ``return`` inside ``with`` skips the synthetic ``with-exit`` event;
  lock-region analysis tolerates locks held at the exit block.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Event kinds.
STMT = "stmt"
TEST = "test"
ITER = "iter"
#: A loop target binding: a synthetic ``Assign`` whose value is the
#: loop iterable. The iterable is already its own ``ITER`` event, so
#: checkers that walk expressions skip a ``BIND`` event's value.
BIND = "bind"
WITH_ENTER = "with-enter"
#: Carries the context expression again; its calls ran at the enter.
WITH_EXIT = "with-exit"


@dataclass(frozen=True)
class Event:
    """One analysis-relevant step inside a basic block."""

    kind: str
    node: ast.AST


@dataclass(frozen=True)
class Guard:
    """One structural condition controlling a block's execution.

    Attributes:
        kind: ``"if"``, ``"while"``, ``"for"``, or ``"except"``.
        test: the branch test / loop iterable (``None`` for except).
        block: id of the block whose tail evaluates the condition.
        branch: ``True`` for the body arm, ``False`` for the else arm.
    """

    kind: str
    test: Optional[ast.AST]
    block: int
    branch: bool


@dataclass
class Block:
    """A maximal straight-line run of events."""

    block_id: int
    events: List[Event] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    guards: Tuple[Guard, ...] = ()
    loop_depth: int = 0


@dataclass
class Cfg:
    """The control-flow graph of one function body."""

    func: FunctionNode
    blocks: Dict[int, Block]
    entry: int
    exit: int

    def preds(self) -> Dict[int, List[int]]:
        """Predecessor lists, computed from successor edges."""
        out: Dict[int, List[int]] = {b: [] for b in self.blocks}
        for block in self.blocks.values():
            for succ in block.succs:
                out[succ].append(block.block_id)
        return out

    def rpo(self) -> List[int]:
        """Reverse postorder from the entry block."""
        seen = set()
        order: List[int] = []

        def visit(block_id: int) -> None:
            # Iterative DFS: deep fixture functions must not hit the
            # interpreter recursion limit.
            stack: List[Tuple[int, int]] = [(block_id, 0)]
            seen.add(block_id)
            while stack:
                current, idx = stack.pop()
                succs = self.blocks[current].succs
                if idx < len(succs):
                    stack.append((current, idx + 1))
                    nxt = succs[idx]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, 0))
                else:
                    order.append(current)

        visit(self.entry)
        order.reverse()
        return order


class _LoopContext:
    """Break/continue targets for the innermost enclosing loop."""

    def __init__(self, continue_target: int, after_target: int):
        self.continue_target = continue_target
        self.after_target = after_target


class _Builder:
    """Recursive-descent CFG construction."""

    def __init__(self, func: FunctionNode):
        self.func = func
        self.blocks: Dict[int, Block] = {}
        self._next_id = 0
        self.entry = self._new_block((), 0)
        self.exit = self._new_block((), 0)
        self._loops: List[_LoopContext] = []

    # -- plumbing -----------------------------------------------------

    def _new_block(
        self, guards: Tuple[Guard, ...], loop_depth: int
    ) -> int:
        block_id = self._next_id
        self._next_id += 1
        self.blocks[block_id] = Block(
            block_id=block_id, guards=guards, loop_depth=loop_depth
        )
        return block_id

    def _edge(self, src: int, dst: int) -> None:
        succs = self.blocks[src].succs
        if dst not in succs:
            succs.append(dst)

    def _emit(self, block_id: int, kind: str, node: ast.AST) -> None:
        self.blocks[block_id].events.append(Event(kind, node))

    def _fork(self, template: int) -> int:
        """A fresh block inheriting a block's guards and depth."""
        src = self.blocks[template]
        return self._new_block(src.guards, src.loop_depth)

    # -- construction -------------------------------------------------

    def build(self) -> Cfg:
        tail = self.body(self.func.body, self.entry)
        if tail is not None:
            self._edge(tail, self.exit)
        return Cfg(
            func=self.func,
            blocks=self.blocks,
            entry=self.entry,
            exit=self.exit,
        )

    def body(
        self, stmts: Sequence[ast.stmt], current: Optional[int]
    ) -> Optional[int]:
        """Thread ``stmts`` through the graph.

        Returns the fall-through block, or ``None`` when every path
        terminated (return/raise/break/continue).
        """
        for stmt in stmts:
            if current is None:
                break  # unreachable code after a terminator
            current = self.statement(stmt, current)
        return current

    def statement(
        self, stmt: ast.stmt, current: int
    ) -> Optional[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, current)
        if isinstance(stmt, ast.While):
            return self._while(stmt, current)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, current)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._emit(current, STMT, stmt)
            self._edge(current, self.exit)
            return None
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._edge(current, self._loops[-1].after_target)
            else:  # malformed source; keep the graph connected
                self._edge(current, self.exit)
            return None
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self._edge(current, self._loops[-1].continue_target)
            else:
                self._edge(current, self.exit)
            return None
        # Nested defs/classes run later under unknown control flow;
        # record them as opaque events, do not descend.
        self._emit(current, STMT, stmt)
        return current

    def _if(self, stmt: ast.If, current: int) -> Optional[int]:
        self._emit(current, TEST, stmt.test)
        here = self.blocks[current]
        after = self._fork(current)

        then_guard = Guard("if", stmt.test, current, True)
        then_block = self._new_block(
            here.guards + (then_guard,), here.loop_depth
        )
        self._edge(current, then_block)
        then_tail = self.body(stmt.body, then_block)
        if then_tail is not None:
            self._edge(then_tail, after)

        else_guard = Guard("if", stmt.test, current, False)
        if stmt.orelse:
            else_block = self._new_block(
                here.guards + (else_guard,), here.loop_depth
            )
            self._edge(current, else_block)
            else_tail = self.body(stmt.orelse, else_block)
            if else_tail is not None:
                self._edge(else_tail, after)
        else:
            self._edge(current, after)

        if not self.blocks[after].succs and not any(
            after in b.succs for b in self.blocks.values()
        ):
            return None  # both arms terminated; after is unreachable
        return after

    def _while(self, stmt: ast.While, current: int) -> Optional[int]:
        here = self.blocks[current]
        header = self._fork(current)
        self._edge(current, header)
        self._emit(header, TEST, stmt.test)
        after = self._fork(current)

        body_guard = Guard("while", stmt.test, header, True)
        body_block = self._new_block(
            here.guards + (body_guard,), here.loop_depth + 1
        )
        self._edge(header, body_block)
        self._loops.append(_LoopContext(header, after))
        body_tail = self.body(stmt.body, body_block)
        self._loops.pop()
        if body_tail is not None:
            self._edge(body_tail, header)

        exit_tail: Optional[int] = header
        if stmt.orelse:
            else_block = self._new_block(
                here.guards + (Guard("while", stmt.test, header, False),),
                here.loop_depth,
            )
            self._edge(header, else_block)
            exit_tail = self.body(stmt.orelse, else_block)
        if exit_tail is not None:
            self._edge(exit_tail, after)
        return after

    def _for(
        self, stmt: Union[ast.For, ast.AsyncFor], current: int
    ) -> Optional[int]:
        self._emit(current, ITER, stmt.iter)
        here = self.blocks[current]
        header = self._fork(current)
        self._edge(current, header)
        after = self._fork(current)

        body_guard = Guard("for", stmt.iter, header, True)
        body_block = self._new_block(
            here.guards + (body_guard,), here.loop_depth + 1
        )
        # The loop target binds at the head of every iteration.
        self._emit(
            body_block,
            BIND,
            ast.Assign(
                targets=[stmt.target],
                value=stmt.iter,
                lineno=stmt.lineno,
                col_offset=stmt.col_offset,
            ),
        )
        self._edge(header, body_block)
        self._loops.append(_LoopContext(header, after))
        body_tail = self.body(stmt.body, body_block)
        self._loops.pop()
        if body_tail is not None:
            self._edge(body_tail, header)

        exit_tail: Optional[int] = header
        if stmt.orelse:
            else_block = self._new_block(
                here.guards, here.loop_depth
            )
            self._edge(header, else_block)
            exit_tail = self.body(stmt.orelse, else_block)
        if exit_tail is not None:
            self._edge(exit_tail, after)
        return after

    def _with(
        self, stmt: Union[ast.With, ast.AsyncWith], current: int
    ) -> Optional[int]:
        for item in stmt.items:
            self._emit(current, WITH_ENTER, item.context_expr)
        tail = self.body(stmt.body, current)
        if tail is None:
            return None
        for item in reversed(stmt.items):
            self._emit(tail, WITH_EXIT, item.context_expr)
        return tail

    def _try(self, stmt: ast.Try, current: int) -> Optional[int]:
        here = self.blocks[current]
        after = self._fork(current)

        before_body = set(self.blocks)
        body_entry = self._fork(current)
        self._edge(current, body_entry)
        body_tail = self.body(stmt.body, body_entry)
        body_blocks = [
            b for b in self.blocks if b not in before_body
        ]

        handler_tails: List[Optional[int]] = []
        for handler in stmt.handlers:
            handler_guard = Guard("except", handler.type, current, True)
            handler_block = self._new_block(
                here.guards + (handler_guard,), here.loop_depth
            )
            # An exception can interrupt the body anywhere: the
            # handler joins every partial execution of the body.
            self._edge(current, handler_block)
            for block_id in body_blocks:
                self._edge(block_id, handler_block)
            handler_tails.append(
                self.body(handler.body, handler_block)
            )

        if body_tail is not None and stmt.orelse:
            body_tail = self.body(stmt.orelse, body_tail)

        tails = [t for t in [body_tail, *handler_tails] if t is not None]
        if not tails:
            if stmt.finalbody:
                final_block = self._fork(current)
                # Keep the finally body in the graph (it runs on the
                # exceptional path) even though no tail reaches it.
                self._edge(current, final_block)
                final_tail = self.body(stmt.finalbody, final_block)
                if final_tail is not None:
                    self._edge(final_tail, self.exit)
            return None
        join = self._fork(current)
        for tail in tails:
            self._edge(tail, join)
        if stmt.finalbody:
            return self.body(stmt.finalbody, join)
        return join


def build_cfg(func: FunctionNode) -> Cfg:
    """Build the control-flow graph of one function body."""
    return _Builder(func).build()


def walk_same_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a subtree without descending into nested scopes.

    The root is always yielded (a walk rooted at a function visits
    that function's own body); nested function/lambda *children* are
    pruned, since their bodies run later under unknown control flow.
    """
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if not isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                stack.append(child)
