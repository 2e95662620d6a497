"""Structural tests for the CFG builder the flow rules run on."""

import ast

from repro.lint.cfg import (
    STMT,
    TEST,
    WITH_ENTER,
    WITH_EXIT,
    build_cfg,
)


def cfg_of(source):
    return build_cfg(ast.parse(source).body[0])


def all_events(cfg):
    return [e for b in cfg.blocks.values() for e in b.events]


class TestStraightLine:
    def test_linear_statements_share_one_block(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    a = x\n"
            "    b = a\n"
            "    return b\n"
        )
        entry = cfg.blocks[cfg.entry]
        assert [e.kind for e in entry.events] == [STMT] * 3
        assert cfg.exit in entry.succs

    def test_code_after_return_is_unreachable(self):
        cfg = cfg_of("def f(x):\n    return x\n    y = 1\n")
        events = all_events(cfg)
        assert len(events) == 1
        assert isinstance(events[0].node, ast.Return)


class TestBranches:
    def test_if_arms_carry_branch_guards_and_join(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        y = 1\n"
            "    else:\n"
            "        y = 2\n"
            "    return y\n"
        )
        entry = cfg.blocks[cfg.entry]
        assert entry.events[-1].kind == TEST
        then_id, else_id = entry.succs
        then_b = cfg.blocks[then_id]
        else_b = cfg.blocks[else_id]
        assert then_b.guards[-1].kind == "if"
        assert then_b.guards[-1].branch is True
        assert else_b.guards[-1].branch is False
        assert then_b.guards[-1].block == cfg.entry
        # Both arms fall through to the same join block.
        assert then_b.succs == else_b.succs

    def test_rpo_starts_at_entry_and_stays_reachable(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        return 1\n"
            "    return 2\n"
        )
        order = cfg.rpo()
        assert order[0] == cfg.entry
        assert set(order) <= set(cfg.blocks)


class TestLoops:
    def test_while_body_has_a_back_edge_to_the_header(self):
        cfg = cfg_of(
            "def f(n):\n"
            "    while n:\n"
            "        n = n - 1\n"
            "    return n\n"
        )
        headers = [
            b
            for b in cfg.blocks.values()
            if any(e.kind == TEST for e in b.events)
        ]
        assert len(headers) == 1
        header = headers[0]
        body = cfg.blocks[header.succs[0]]
        assert body.loop_depth == 1
        assert body.guards[-1].kind == "while"
        assert header.block_id in body.succs

    def test_for_binds_the_target_at_the_body_head(self):
        cfg = cfg_of(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        y = x\n"
        )
        body = next(
            b for b in cfg.blocks.values() if b.loop_depth == 1
        )
        head = body.events[0].node
        assert isinstance(head, ast.Assign)
        assert head.targets[0].id == "x"
        assert head.value.id == "xs"


class TestRegions:
    def test_with_emits_enter_and_exit_events(self):
        cfg = cfg_of(
            "def f(lock):\n"
            "    with lock:\n"
            "        x = 1\n"
        )
        kinds = [e.kind for e in cfg.blocks[cfg.entry].events]
        assert kinds == [WITH_ENTER, STMT, WITH_EXIT]

    def test_handler_joins_every_partial_body_execution(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    try:\n"
            "        a = x\n"
            "        b = a\n"
            "    except ValueError:\n"
            "        b = 0\n"
            "    return b\n"
        )
        handler = next(
            b
            for b in cfg.blocks.values()
            if b.guards and b.guards[-1].kind == "except"
        )
        preds = [
            b.block_id
            for b in cfg.blocks.values()
            if handler.block_id in b.succs
        ]
        # At least the pre-try block and the body block.
        assert len(preds) >= 2
