"""A small forward abstract-interpretation framework.

Checkers plug a lattice into :class:`ForwardAnalysis` — an abstract
state type, a transfer function over CFG events, and a join — and
:func:`run_forward` iterates to a fixpoint over the block graph with
a reverse-postorder worklist. The framework is deliberately minimal:
all the lattices the rule families use are finite-height (unit maps
over finitely many locals, lock sets, taint sets), so plain chaotic
iteration converges; ``max_visits`` is a safety valve, not a widening
operator.

After the fixpoint, checkers typically replay each block's events
once more from its entry state (:func:`replay`) to emit findings at
exact event positions.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, TypeVar

from repro.lint.cfg import Block, Cfg, Event

S = TypeVar("S")


class ForwardAnalysis(Generic[S]):
    """One dataflow problem: initial state, transfer, join."""

    def initial(self) -> S:
        """State at the function entry."""
        raise NotImplementedError

    def transfer(self, state: S, event: Event) -> S:
        """State after one event. Must not mutate ``state``."""
        raise NotImplementedError

    def join(self, left: S, right: S) -> S:
        """Least upper bound of two states at a merge point."""
        raise NotImplementedError

    def equals(self, left: S, right: S) -> bool:
        """Convergence test; default is structural equality."""
        return bool(left == right)

    # -- derived ------------------------------------------------------

    def transfer_block(self, state: S, block: Block) -> S:
        """Fold :meth:`transfer` over a whole block."""
        for event in block.events:
            state = self.transfer(state, event)
        return state


def run_forward(
    cfg: Cfg,
    analysis: ForwardAnalysis[S],
    max_visits_per_block: int = 64,
) -> Dict[int, S]:
    """Fixpoint entry states for every reachable block.

    Returns a mapping block id -> abstract state at block *entry*.
    Unreachable blocks are absent. ``max_visits_per_block`` bounds
    total work on pathological graphs; hitting it leaves a sound
    over-approximation unfinished, which for our error-reporting
    rules means at worst a missed finding, never a crash.
    """
    order = cfg.rpo()
    position = {block_id: i for i, block_id in enumerate(order)}
    entry_states: Dict[int, S] = {cfg.entry: analysis.initial()}
    pending = list(order)
    visits: Dict[int, int] = {}
    budget = max_visits_per_block * max(len(order), 1)

    while pending and budget > 0:
        budget -= 1
        block_id = pending.pop(0)
        if block_id not in entry_states:
            continue
        visits[block_id] = visits.get(block_id, 0) + 1
        if visits[block_id] > max_visits_per_block:
            continue
        block = cfg.blocks[block_id]
        out_state = analysis.transfer_block(
            entry_states[block_id], block
        )
        for succ in block.succs:
            if succ not in entry_states:
                entry_states[succ] = out_state
                changed = True
            else:
                joined = analysis.join(entry_states[succ], out_state)
                changed = not analysis.equals(
                    joined, entry_states[succ]
                )
                if changed:
                    entry_states[succ] = joined
            if changed and succ not in pending:
                # Keep the worklist roughly in RPO for fast
                # convergence on reducible graphs.
                idx = position.get(succ, len(order))
                inserted = False
                for i, queued in enumerate(pending):
                    if position.get(queued, len(order)) > idx:
                        pending.insert(i, succ)
                        inserted = True
                        break
                if not inserted:
                    pending.append(succ)
    return entry_states


def replay(
    cfg: Cfg,
    analysis: ForwardAnalysis[S],
    entry_states: Dict[int, S],
    visit: Callable[[S, Event, Block], None],
) -> None:
    """Walk every reachable block once, calling ``visit`` per event.

    ``visit`` receives the abstract state *before* the event — the
    standard way to turn fixpoint states into findings at exact
    source positions.
    """
    for block_id, state in entry_states.items():
        block = cfg.blocks[block_id]
        for event in block.events:
            visit(state, event, block)
            state = analysis.transfer(state, event)


def out_states(
    cfg: Cfg,
    analysis: ForwardAnalysis[S],
    entry_states: Dict[int, S],
) -> Dict[int, S]:
    """Exit state of every reachable block, from its entry state."""
    return {
        block_id: analysis.transfer_block(
            state, cfg.blocks[block_id]
        )
        for block_id, state in entry_states.items()
    }
