"""The CI gate: the shipped tree is lint-clean at the error level,
and reintroducing a violation flips the exit code — the exact
contract the workflow's ``repro lint src/repro --fail-on error``
step enforces.

Every rule family has a reintroduced-violation test here: copy a
shipped module, make a one-line edit that brings back the bug class
the family guards, and check the rule id and the exit code."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import cli, main as lint_main, run_lint

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


@pytest.fixture(scope="session")
def shipped_lint():
    """One in-process lint of the shipped tree, shared by the gates."""
    return run_lint([str(SRC)])


@pytest.fixture
def shipped_main(shipped_lint, monkeypatch):
    """``lint_main`` whose lint of the shipped tree is the shared one.

    Any other lint goes through the real engine. The CLI's gate,
    baseline and rendering code still run on every call.
    """
    real_run_lint = cli.run_lint

    def run_lint_once(paths, select=None, ignore=None):
        if list(paths) == [str(SRC)] and select is None and ignore is None:
            return dataclasses.replace(shipped_lint)
        return real_run_lint(paths, select=select, ignore=ignore)

    monkeypatch.setattr(cli, "run_lint", run_lint_once)
    return lint_main


def gate(capsys, *argv):
    """Exit code and rule ids of one ``repro lint --format json``."""
    code = lint_main([*map(str, argv), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    return code, [f["rule"] for f in payload["findings"]]


def copy_with_edit(source, target, old, new):
    """Copy a shipped module to ``target`` with one line changed."""
    text = source.read_text()
    assert text.count(old) == 1, f"{old!r} not unique in {source}"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text.replace(old, new))
    return target


class TestCleanTree:
    def test_shipped_tree_passes_the_error_gate(
        self, shipped_main, capsys
    ):
        assert shipped_main([str(SRC), "--fail-on", "error"]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_shipped_tree_has_no_warnings_either(self, shipped_lint):
        assert [f.render() for f in shipped_lint.findings] == []

    def test_gate_via_subprocess_like_ci(self):
        # CI runs the console entry; exercise the same surface.
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                str(SRC),
                "--fail-on",
                "error",
            ],
            capture_output=True,
            text=True,
            cwd=str(REPO),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestReintroducedViolation:
    def _copy_module(self, tmp_path, scoped_dir):
        # A real shipped module, moved under a scoped directory so
        # the determinism/concurrency families apply to it.
        target_dir = tmp_path / scoped_dir
        target_dir.mkdir(parents=True)
        target = target_dir / "gateway.py"
        shutil.copyfile(SRC / "stream" / "gateway.py", target)
        return target

    def test_wall_clock_leak_fails_the_gate(self, tmp_path):
        target = self._copy_module(tmp_path, "stream")
        source = target.read_text()
        assert "started = time.perf_counter()" in source
        target.write_text(
            source.replace(
                "started = time.perf_counter()",
                "started = time.time()",
                1,
            )
        )
        result = run_lint([str(target)])
        assert any(
            f.rule_id == "RL201" for f in result.findings
        )
        assert lint_main([str(target), "--fail-on", "error"]) == 1

    def test_unlocked_mutation_fails_the_gate(self, tmp_path):
        target = self._copy_module(tmp_path, "runtime")
        source = target.read_text()
        # Strip one `with self._lock:` block down to its body —
        # exactly the pre-fix StreamGateway.evict_idle shape.
        assert "with self._lock:" in source
        target.write_text(
            source.replace(
                "        with self._lock:\n"
                "            session = self.sessions.get(node_id)\n"
                "            if session is None:",
                "        if True:\n"
                "            session = self.sessions.get(node_id)\n"
                "            if session is None:",
                1,
            )
        )
        result = run_lint([str(target)])
        assert any(
            f.rule_id == "RL301" for f in result.findings
        )

    def test_unit_mismatch_fails_the_gate(self, tmp_path):
        # A fresh file calling a real repro API with the wrong
        # scale: cross-module resolution must catch it.
        target = tmp_path / "consumer.py"
        target.write_text(
            "from repro.rf.noise import thermal_noise_dbm\n"
            "\n"
            "\n"
            "def noise(bandwidth_mhz):\n"
            "    return thermal_noise_dbm(bandwidth_mhz)\n"
        )
        result = run_lint([str(target)])
        assert [f.rule_id for f in result.findings] == ["RL101"]
        assert lint_main([str(target), "--fail-on", "error"]) == 1

    def test_global_rng_draw_fails_the_gate(self, tmp_path, capsys):
        """RL202: a simulation draw from the process-global numpy RNG,
        so a run's samples depend on whatever else drew before it."""
        target = copy_with_edit(
            SRC / "rf" / "fading.py",
            tmp_path / "rf" / "fading.py",
            "return float(rng.normal(0.0, sigma_db))",
            "return float(np.random.normal(0.0, sigma_db))",
        )
        assert gate(capsys, target) == (1, ["RL202"])

    def test_hook_under_the_lock_fails_the_warning_gate(
        self, tmp_path, capsys
    ):
        """RL302: export hooks run while the gateway lock is held, so
        a slow downstream store stalls ingestion."""
        target = copy_with_edit(
            SRC / "stream" / "gateway.py",
            tmp_path / "stream" / "gateway.py",
            "hooks = list(self._export_hooks)",
            "hooks = [hook(batch) for hook in self._export_hooks]",
        )
        assert gate(capsys, target, "--fail-on", "warning") == (
            1,
            ["RL302"],
        )
        # A warning alone leaves the default error gate green.
        assert gate(capsys, target)[0] == 0

    def test_bare_except_fails_the_gate(self, tmp_path, capsys):
        """RL402: a bare ``except:`` that also catches
        KeyboardInterrupt and SystemExit, so Ctrl-C cannot stop the
        server while it closes a connection."""
        target = copy_with_edit(
            SRC / "serve" / "server.py",
            tmp_path / "serve" / "server.py",
            "            except (ConnectionResetError, BrokenPipeError):\n"
            "                pass",
            "            except:\n"
            "                pass",
        )
        assert gate(capsys, target) == (1, ["RL402"])

    def test_swallowed_exception_fails_the_warning_gate(
        self, tmp_path, capsys
    ):
        """RL403: ``except Exception: pass`` hides every failure, not
        just the connection resets the handler expects."""
        target = copy_with_edit(
            SRC / "serve" / "server.py",
            tmp_path / "serve" / "server.py",
            "            except (ConnectionResetError, BrokenPipeError):\n"
            "                pass",
            "            except Exception:\n"
            "                pass",
        )
        assert gate(capsys, target, "--fail-on", "warning") == (
            1,
            ["RL403"],
        )

    def test_draw_under_a_sampled_branch_fails_the_gate(
        self, tmp_path, capsys
    ):
        """RL501: the scalar oracle redraws a squitter whose sampled
        power fell below threshold, so it consumes more of the RNG
        stream than its batch twin and the pair diverges."""
        target = copy_with_edit(
            SRC / "core" / "directional.py",
            tmp_path / "directional.py",
            "                if rx_dbm < threshold:\n"
            "                    continue",
            "                if rx_dbm < threshold:\n"
            "                    rx_dbm = link.message_received_power_dbm("
            "event.frame.icao, tx_position, event.tx_power_w, rng)",
        )
        assert gate(capsys, target) == (1, ["RL501"])

    def test_data_dependent_draw_count_fails_the_gate(
        self, tmp_path, capsys
    ):
        """RL502: a channel scan repeated for strong towers, so the
        number of draws follows the data and the scalar path leaves
        lockstep with its batch twin."""
        target = copy_with_edit(
            SRC / "core" / "frequency.py",
            tmp_path / "frequency.py",
            "if tower.earfcn not in scans:",
            "if tower.earfcn not in scans or expected > -90.0:",
        )
        assert gate(capsys, target) == (1, ["RL502"])

    def test_kernel_without_oracle_fails_the_gate(
        self, tmp_path, capsys
    ):
        """RL601: a public vectorized kernel with no scalar oracle,
        so nothing can prove its output equals the reference."""
        target = copy_with_edit(
            SRC / "core" / "frequency.py",
            tmp_path / "frequency.py",
            "    def _expected_dbfs_batch(",
            "    def expected_dbfs_batch(",
        )
        assert gate(capsys, target) == (1, ["RL601"])

    def test_oracle_pair_without_test_fails_the_gate(
        self, tmp_path, capsys
    ):
        """RL602: a kernel's scalar oracle that no equivalence test
        calls, here after a rename the tests did not follow."""
        # A minimal repo: the CLI finds ``tests/`` next to the
        # ``pyproject.toml`` above the target.
        (tmp_path / "pyproject.toml").write_text("")
        (tmp_path / "tests").mkdir()
        for name in ("test_fm.py", "test_meter_batch_equivalence.py"):
            shutil.copyfile(
                REPO / "tests" / name, tmp_path / "tests" / name
            )
        source = SRC / "fm" / "meter.py"
        target = tmp_path / "fm" / "meter.py"
        target.parent.mkdir()
        shutil.copyfile(source, target)
        assert gate(capsys, target) == (0, [])
        copy_with_edit(
            source,
            target,
            "    def measure_iq(\n",
            "    def measure_iq_scalar(\n",
        )
        assert gate(capsys, target) == (1, ["RL602"])


class TestBaselineGate:
    """The CI ratchet step: committed debt only ever shrinks."""

    BASELINE = REPO / "lint-baseline.json"

    def test_committed_baseline_is_empty_debt(self):
        import json

        payload = json.loads(self.BASELINE.read_text())
        assert payload == {"version": 1, "entries": {}}

    def test_ratchet_step_passes_on_the_shipped_tree(
        self, shipped_main, capsys
    ):
        assert (
            shipped_main(
                [
                    str(SRC),
                    "--baseline",
                    str(self.BASELINE),
                    "--fail-on",
                    "error",
                ]
            )
            == 0
        )

    def test_reintroduced_violation_defeats_the_baseline(
        self, tmp_path, capsys
    ):
        # A finding not recorded in the committed baseline stays
        # fresh: the ratchet absorbs recorded debt only, so the
        # reintroduced violation flips the exit code to 1.
        target = tmp_path / "consumer.py"
        target.write_text(
            "def f(a_hz, b_ms):\n    return a_hz + b_ms\n"
        )
        assert (
            lint_main(
                [
                    str(target),
                    "--baseline",
                    str(self.BASELINE),
                    "--fail-on",
                    "error",
                ]
            )
            == 1
        )
