"""Fixture-driven tests: one positive/negative/suppressed trio per
rule family, linted hermetically (``index_package=False``) so the
expected findings depend only on the fixture files themselves."""

from pathlib import Path

import pytest

from repro.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def lint(*relative, select=None):
    return run_lint(
        [str(FIXTURES / r) for r in relative],
        select=select,
        index_package=False,
    )


def rule_ids(result):
    return [f.rule_id for f in result.findings]


def located(result):
    return [(f.rule_id, f.line) for f in result.findings]


class TestUnitsFamily:
    def test_positive_fixture_fires_every_case(self):
        result = lint("units_bad.py")
        ids = rule_ids(result)
        # Two direct bindings plus both slots of the by-name
        # instance-method call.
        assert ids.count("RL101") == 4
        # dBm+dBm, Hz+MHz, s-ms.
        assert ids.count("RL102") == 3
        assert result.error_count == 7
        messages = [f.message for f in result.findings]
        assert any("MHz" in m and "freq_hz" in m for m in messages)
        assert any("dBm" in m and "watts" in m for m in messages)

    def test_negative_fixture_is_silent(self):
        result = lint("units_good.py")
        assert result.findings == []

    def test_line_suppressions_are_counted_not_reported(self):
        result = lint("units_suppressed.py")
        assert result.findings == []
        assert result.suppressed == 2

    def test_file_wide_suppression(self):
        result = lint("units_disable_file.py")
        assert result.findings == []
        assert result.suppressed == 2


class TestDeterminismFamily:
    def test_positive_fixture_fires_every_case(self):
        result = lint("stream/determinism_bad.py")
        ids = rule_ids(result)
        assert ids.count("RL201") == 3
        assert ids.count("RL202") == 4

    def test_negative_fixture_is_silent(self):
        result = lint(
            "stream/determinism_good.py", select=["RL2"]
        )
        assert result.findings == []

    def test_suppressed(self):
        result = lint(
            "stream/determinism_suppressed.py", select=["RL2"]
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_same_code_outside_sim_scope_is_silent(self, tmp_path):
        # Scope is part of the rule: wall clocks are fine in, say,
        # a tools/ module.
        source = (
            FIXTURES / "stream" / "determinism_bad.py"
        ).read_text()
        target = tmp_path / "tools" / "wallclock.py"
        target.parent.mkdir()
        target.write_text(source)
        result = run_lint([str(target)], index_package=False)
        assert result.findings == []


class TestConcurrencyFamily:
    def test_positive_fixture_fires_every_case(self):
        result = lint("stream/concurrency_bad.py")
        ids = rule_ids(result)
        # put, bump, drop, reset.
        assert ids.count("RL301") == 4
        # callback + print under the lock.
        assert ids.count("RL302") == 2

    def test_negative_fixture_is_silent(self):
        result = lint(
            "stream/concurrency_good.py", select=["RL3"]
        )
        assert result.findings == []

    def test_suppressed(self):
        result = lint(
            "stream/concurrency_suppressed.py", select=["RL3"]
        )
        assert result.findings == []
        assert result.suppressed == 1


class TestInterfaceFamily:
    def test_positive_fixture_fires_every_case(self):
        result = lint("core/interface_bad.py")
        ids = rule_ids(result)
        # unannotated (all params + return) and half_annotated
        # (one param).
        assert ids.count("RL401") == 2
        assert ids.count("RL402") == 1
        assert ids.count("RL403") == 1

    def test_negative_fixture_is_silent(self):
        result = lint("core/interface_good.py")
        assert result.findings == []


class TestEngineBehaviour:
    def test_select_filters_to_one_family(self):
        result = lint(
            "units_bad.py",
            "stream/determinism_bad.py",
            select=["RL1"],
        )
        assert set(rule_ids(result)) == {"RL101", "RL102"}

    def test_parse_error_is_a_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def nope(:\n")
        result = run_lint([str(broken)], index_package=False)
        assert rule_ids(result) == ["RL000"]
        assert result.error_count == 1

    def test_findings_sorted_by_location(self):
        result = lint("units_bad.py")
        keys = [(f.path, f.line, f.col) for f in result.findings]
        assert keys == sorted(keys)

    def test_missing_path_raises(self):
        try:
            run_lint(["definitely/not/here.py"])
        except FileNotFoundError:
            pass
        else:
            raise AssertionError("expected FileNotFoundError")


class TestUnitFlowFamily:
    def test_positive_fixture_fires_every_case(self):
        result = lint("flow/units_flow_bad.py", select=["RL1"])
        ids = rule_ids(result)
        # Laundered dBm+dBm add; Hz + µs dimension mix.
        assert ids.count("RL103") == 2
        # Inferred-MHz value bound to the `center_hz` parameter.
        assert ids.count("RL104") == 1
        # *_khz function returning an inferred-Hz value.
        assert ids.count("RL105") == 1
        assert len(ids) == 4
        messages = [f.message for f in result.findings]
        assert all(
            "dataflow" in m or "promises" in m for m in messages
        )

    def test_negative_fixture_is_silent(self):
        result = lint("flow/units_flow_clean.py", select=["RL1"])
        assert result.findings == []

    def test_unsuffixed_keyword_does_not_end_the_call(self, tmp_path):
        # `n` carries no unit; the `freq_hz` binding after it is
        # still checked, whatever the keyword order.
        target = tmp_path / "tuning.py"
        target.write_text(
            "def tune(n, freq_hz=0.0):\n"
            "    return freq_hz * n\n"
            "\n"
            "\n"
            "def retune(level_dbm):\n"
            "    power = level_dbm\n"
            "    tune(freq_hz=power, n=3)\n"
            "    tune(n=3, freq_hz=power)\n"
        )
        result = run_lint([str(target)], index_package=False)
        assert located(result) == [("RL104", 7), ("RL104", 8)]

    def test_loop_iterable_is_reported_once(self, tmp_path):
        target = tmp_path / "spin.py"
        target.write_text(
            "def spin(level_dbm, other_dbm):\n"
            "    power = level_dbm\n"
            "    for _ in range(int(power + other_dbm)):\n"
            "        pass\n"
        )
        result = run_lint([str(target)], index_package=False)
        assert located(result) == [("RL103", 3)]

    def test_loop_target_takes_the_iterable_unit(self, tmp_path):
        target = tmp_path / "sweep.py"
        target.write_text(
            "def sweep(freqs_hz, pause_us):\n"
            "    for f in freqs_hz:\n"
            "        total = f + pause_us\n"
            "    return total\n"
        )
        result = run_lint([str(target)], index_package=False)
        assert located(result) == [("RL103", 3)]
        assert "Hz" in result.findings[0].message


class TestLockFlowFamily:
    def test_positive_fixture_fires_every_case(self):
        result = lint("stream/lockflow_bad.py", select=["RL3"])
        ids = rule_ids(result)
        # Conditional acquire; mutation after the with closed.
        assert ids.count("RL301") == 2
        # Callback under a manual acquire/release region.
        assert ids.count("RL302") == 1
        messages = [f.message for f in result.findings]
        assert any("on a path where" in m for m in messages)

    def test_negative_fixture_is_silent(self):
        # Includes the acquire/try/finally/release idiom, which the
        # pre-CFG heuristic checker could not prove safe.
        result = lint("stream/lockflow_clean.py", select=["RL3"])
        assert result.findings == []

    @pytest.mark.parametrize(
        "head",
        ["for _ in self.on_event():", "with self.on_event():"],
        ids=["loop-iterable", "with-context"],
    )
    def test_call_under_the_lock_is_reported_once(self, tmp_path, head):
        # The loop target's binding and the with-exit both repeat the
        # node holding the call; neither reports it again.
        target = tmp_path / "stream" / "hub.py"
        target.parent.mkdir()
        target.write_text(
            "import threading\n"
            "\n"
            "\n"
            "class Hub:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "\n"
            "    def fire(self):\n"
            "        with self._lock:\n"
            f"            {head}\n"
            "                pass\n"
        )
        result = run_lint(
            [str(target)], select=["RL3"], index_package=False
        )
        assert located(result) == [("RL302", 10)]


class TestRngLockstepFamily:
    def test_positive_fixture_fires_every_case(self):
        result = lint("flow/rng_bad.py", select=["RL5"])
        ids = rule_ids(result)
        # A draw under an RNG-tainted condition.
        assert ids.count("RL501") == 1
        # Unbalanced draw counts across a data-dependent branch.
        assert ids.count("RL502") == 1

    def test_negative_fixture_is_silent(self):
        # Mode-like guards, memoized draws, early-return dispatch
        # and two-pass loops are all sanctioned patterns.
        result = lint("flow/rng_clean.py", select=["RL5"])
        assert result.findings == []


class TestOracleFamily:
    def test_kernel_without_oracle_fires(self):
        result = lint("oracle/missing_oracle.py", select=["RL6"])
        assert rule_ids(result) == ["RL601"]

    def test_scalar_twin_dispatcher_counts_as_oracle(self):
        result = lint("oracle/dispatched.py", select=["RL6"])
        assert result.findings == []

    def test_untested_pair_fires_with_a_test_index(self):
        result = run_lint(
            [str(FIXTURES / "oracle" / "paired.py")],
            select=["RL6"],
            index_package=False,
            tests_root=str(
                FIXTURES / "oracle" / "tests_missing"
            ),
        )
        assert rule_ids(result) == ["RL602"]

    def test_tested_pair_is_silent(self):
        result = run_lint(
            [str(FIXTURES / "oracle" / "paired.py")],
            select=["RL6"],
            index_package=False,
            tests_root=str(FIXTURES / "oracle" / "tests_ok"),
        )
        assert result.findings == []

    def test_without_a_test_index_coverage_is_not_judged(self):
        result = lint("oracle/paired.py", select=["RL6"])
        assert result.findings == []
