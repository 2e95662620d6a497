"""What a run reads: the tokenizer only for files whose findings
need their suppression comments, and the tests tree only when a
target has a public ``*_batch`` kernel for RL602 to judge."""

import tokenize
from pathlib import Path

import pytest

from repro.lint import run_lint, signatures

FIXTURES = Path(__file__).parent / "fixtures"
TESTS_OK = FIXTURES / "oracle" / "tests_ok"


@pytest.fixture
def tokenized(monkeypatch):
    """Every call to the tokenizer during the test."""
    calls = []
    real = tokenize.generate_tokens

    def spy(readline):
        calls.append(readline)
        return real(readline)

    monkeypatch.setattr(tokenize, "generate_tokens", spy)
    return calls


@pytest.fixture
def test_modules_walked(monkeypatch):
    """Every tests-tree module whose references were collected."""
    calls = []
    real = signatures.referenced_names

    def spy(tree):
        calls.append(tree)
        return real(tree)

    monkeypatch.setattr(signatures, "referenced_names", spy)
    return calls


class TestSuppressionsAreLazy:
    def test_clean_file_is_never_tokenized(self, tokenized):
        # The package index is on: none of its files is tokenized
        # either, since no finding asks about them.
        result = run_lint([str(FIXTURES / "units_good.py")])
        assert result.findings == []
        assert tokenized == []

    def test_findings_without_a_marker_skip_the_tokenizer(
        self, tokenized
    ):
        path = FIXTURES / "units_bad.py"
        assert "repro-lint" not in path.read_text().lower()
        result = run_lint([str(path)], index_package=False)
        assert result.error_count == 7
        assert tokenized == []

    def test_findings_with_a_marker_are_tokenized_once(
        self, tokenized
    ):
        result = run_lint(
            [str(FIXTURES / "units_suppressed.py")],
            index_package=False,
        )
        assert result.suppressed == 2
        assert len(tokenized) == 1

    def test_upper_case_marker_suppresses(self, tmp_path):
        target = tmp_path / "shout.py"
        target.write_text(
            "def tune(freq_hz):\n"
            "    return freq_hz\n"
            "\n"
            "\n"
            "def retune(span_mhz):\n"
            "    return tune(span_mhz)  # REPRO-LINT: DISABLE=RL101\n"
        )
        result = run_lint([str(target)], index_package=False)
        assert result.findings == []
        assert result.suppressed == 1

    def test_marker_inside_a_string_does_not_suppress(self, tmp_path):
        target = tmp_path / "quoted.py"
        target.write_text(
            "def tune(freq_hz):\n"
            "    return freq_hz\n"
            "\n"
            "\n"
            "def retune(span_mhz):\n"
            '    return tune(span_mhz), "# repro-lint: disable=RL101"\n'
        )
        result = run_lint([str(target)], index_package=False)
        assert [f.rule_id for f in result.findings] == ["RL101"]
        assert result.suppressed == 0


class TestTestsTreeIsLazy:
    def test_no_batch_kernel_never_reads_the_tests_tree(
        self, test_modules_walked
    ):
        # Linting inside the repo discovers its tests/ directory,
        # but nothing in the target needs it.
        result = run_lint([str(FIXTURES / "units_good.py")])
        assert result.findings == []
        assert test_modules_walked == []

    def test_private_batch_kernel_never_reads_the_tests_tree(
        self, tmp_path, test_modules_walked
    ):
        target = tmp_path / "kernels.py"
        target.write_text(
            "def _fold_batch(xs):\n"
            "    return xs\n"
            "\n"
            "\n"
            "def _fold(x):\n"
            "    return x\n"
        )
        result = run_lint(
            [str(target)],
            index_package=False,
            tests_root=str(TESTS_OK),
        )
        assert result.findings == []
        assert test_modules_walked == []

    def test_public_batch_kernel_reads_the_tests_tree(
        self, test_modules_walked
    ):
        result = run_lint(
            [str(FIXTURES / "oracle" / "paired.py")],
            index_package=False,
            tests_root=str(TESTS_OK),
        )
        assert result.findings == []
        assert len(test_modules_walked) == 1

    def test_tests_tree_without_a_parsable_module_judges_nothing(
        self, tmp_path
    ):
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "broken.py").write_text("def nope(:\n")
        result = run_lint(
            [str(FIXTURES / "oracle" / "paired.py")],
            select=["RL6"],
            index_package=False,
            tests_root=str(tests),
        )
        assert result.findings == []
