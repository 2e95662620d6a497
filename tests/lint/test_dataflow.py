"""The forward abstract-interpretation framework, exercised with a
small must-assign analysis (join = intersection)."""

import ast

from repro.lint.cfg import STMT, build_cfg
from repro.lint.dataflow import (
    ForwardAnalysis,
    out_states,
    replay,
    run_forward,
)


class MustAssign(ForwardAnalysis):
    def initial(self):
        return frozenset()

    def transfer(self, state, event):
        node = event.node
        if event.kind == STMT and isinstance(node, ast.Assign):
            names = frozenset(
                t.id
                for t in node.targets
                if isinstance(t, ast.Name)
            )
            return state | names
        return state

    def join(self, left, right):
        return left & right


def analyse(source):
    cfg = build_cfg(ast.parse(source).body[0])
    analysis = MustAssign()
    return cfg, analysis, run_forward(cfg, analysis)


def state_at_assign(cfg, states, name):
    """Entry state of the block whose events assign ``name``."""
    for block in cfg.blocks.values():
        for event in block.events:
            node = event.node
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name
            ):
                return states[block.block_id]
    raise AssertionError(f"no assignment to {name}")


class TestFixpoint:
    def test_join_is_must_assign_at_the_merge(self):
        cfg, _, states = analyse(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "        b = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    c = a\n"
        )
        merged = state_at_assign(cfg, states, "c")
        assert "a" in merged
        assert "b" not in merged

    def test_loop_body_facts_do_not_leak_past_the_loop(self):
        cfg, _, states = analyse(
            "def f(n):\n"
            "    while n:\n"
            "        inside = 1\n"
            "    after = 1\n"
        )
        # The loop may run zero times, so `inside` is not a
        # must-assign fact at the exit.
        assert "inside" not in state_at_assign(
            cfg, states, "after"
        )

    def test_unreachable_blocks_have_no_state(self):
        cfg, _, states = analyse(
            "def f(x):\n"
            "    if x:\n"
            "        return 1\n"
            "    else:\n"
            "        return 2\n"
        )
        assert set(states) < set(cfg.blocks)


class TestReplayHelpers:
    def test_replay_passes_the_pre_event_state(self):
        cfg, analysis, states = analyse(
            "def f():\n    a = 1\n    b = a\n"
        )
        seen = []
        replay(
            cfg,
            analysis,
            states,
            lambda s, e, b: seen.append(set(s)),
        )
        assert seen[0] == set()
        assert seen[1] == {"a"}

    def test_out_states_fold_whole_blocks(self):
        cfg, analysis, states = analyse(
            "def f():\n    a = 1\n    b = a\n"
        )
        exits = out_states(cfg, analysis, states)
        assert exits[cfg.entry] == frozenset({"a", "b"})
