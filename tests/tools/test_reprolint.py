"""Framework tests for tools/reprolint: suppressions, baseline, CLI contract.

Rule *behaviour* (does RPL00x fire on its known-bad example) is covered by
``scripts/reprolint_selfcheck.py`` over the fixtures; these tests cover the
framework itself — directive parsing, baseline add/expire semantics, the
JSON output schema, exit codes, and multi-file de-duplication.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint.baseline import Baseline, BaselineError  # noqa: E402
from tools.reprolint.cli import main  # noqa: E402
from tools.reprolint.core import (  # noqa: E402
    Finding,
    Suppressions,
    logical_path,
    run_paths,
)
from tools.reprolint.rules import all_rules  # noqa: E402

# One RPL001 finding (unseeded default_rng) in a deterministic logical path.
BAD_RNG = (
    "# reprolint: treat-as=repro/sparse/tmp_fixture.py\n"
    "import numpy as np\n"
    "\n"
    "\n"
    "def build():\n"
    "    return np.random.default_rng()\n"
)


def write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def lint(path: Path):
    return run_paths([str(path)], all_rules())


# ----------------------------------------------------------------------
# suppression directive parsing
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_same_line_disable(self):
        table = Suppressions("x = 1  # reprolint: disable=RPL001\n")
        assert table.is_suppressed("RPL001", 1)
        assert not table.is_suppressed("RPL002", 1)
        assert not table.is_suppressed("RPL001", 2)

    def test_disable_next_applies_to_following_line(self):
        table = Suppressions("# reprolint: disable-next=RPL005\nx = 1\n")
        assert table.is_suppressed("RPL005", 2)
        assert not table.is_suppressed("RPL005", 1)

    def test_disable_file_and_comma_lists(self):
        table = Suppressions("# reprolint: disable-file=RPL001,RPL002\n")
        for line in (1, 99):
            assert table.is_suppressed("RPL001", line)
            assert table.is_suppressed("RPL002", line)

    def test_treat_as_overrides_logical_path(self):
        table = Suppressions("# reprolint: treat-as=repro/serve/http.py\n")
        assert table.treat_as == "repro/serve/http.py"

    def test_malformed_code_recorded_as_invalid(self):
        table = Suppressions("x = 1  # reprolint: disable=BOGUS1\n")
        assert table.invalid == [(1, "BOGUS1")]

    def test_suppressed_finding_counted_not_reported(self, tmp_path):
        clean = BAD_RNG.replace(
            "    return np.random.default_rng()",
            "    return np.random.default_rng()  # reprolint: disable=RPL001",
        )
        result = lint(write(tmp_path, "suppressed.py", clean))
        assert result.all_findings == []
        assert result.suppressed == 1

    def test_invalid_directive_surfaces_as_rpl000(self, tmp_path):
        result = lint(write(tmp_path, "bad_directive.py", "x = 1  # reprolint: disable=NOPE9\n"))
        assert [f.code for f in result.all_findings] == ["RPL000"]

    def test_syntax_error_surfaces_as_rpl000(self, tmp_path):
        result = lint(write(tmp_path, "broken.py", "def oops(:\n"))
        codes = [f.code for f in result.all_findings]
        assert codes == ["RPL000"]
        assert "syntax error" in result.all_findings[0].message


# ----------------------------------------------------------------------
# logical paths
# ----------------------------------------------------------------------
class TestLogicalPath:
    def test_strips_through_src(self):
        assert logical_path(Path("src/repro/sparse/engine.py")) == "repro/sparse/engine.py"

    def test_plain_path_unchanged(self):
        assert logical_path(Path("tools/reprolint/core.py")) == "tools/reprolint/core.py"


# ----------------------------------------------------------------------
# baseline add / expire
# ----------------------------------------------------------------------
class TestBaseline:
    def _finding(self, message="msg", line=3):
        return Finding("RPL001", "src/repro/x.py", line, 1, message)

    def test_split_budget_is_per_occurrence(self):
        finding = self._finding()
        baseline = Baseline.from_findings([finding])
        split = baseline.split([finding, self._finding(line=9)])
        # Same fingerprint twice against budget 1: second occurrence is new.
        assert len(split.baselined) == 1
        assert len(split.new) == 1
        assert split.stale == []

    def test_unmatched_budget_reported_stale(self):
        baseline = Baseline.from_findings([self._finding()])
        split = baseline.split([])
        assert split.stale == [self._finding().fingerprint()]

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([self._finding(), self._finding(line=7)]).save(path)
        loaded = Baseline.load(path)
        assert loaded.counts[self._finding().fingerprint()] == 2

    def test_missing_file_loads_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "absent.json").counts == {}

    @pytest.mark.parametrize(
        "payload",
        ["not json{", '{"version": 99, "entries": {}}', '{"version": 1}',
         '{"version": 1, "entries": {"f": 0}}'],
    )
    def test_invalid_documents_rejected(self, tmp_path, payload):
        path = write(tmp_path, "baseline.json", payload)
        with pytest.raises(BaselineError):
            Baseline.load(path)

    def test_write_baseline_then_clean_then_expire(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.py", BAD_RNG)
        baseline_path = tmp_path / "baseline.json"

        # Capture the finding into the baseline: exit 0.
        assert main([str(bad), "--baseline", str(baseline_path), "--write-baseline"]) == 0
        # Same tree against the captured baseline: clean.
        assert main([str(bad), "--baseline", str(baseline_path)]) == 0
        capsys.readouterr()

        # Fix the file: the baseline entry goes stale, which fails the run
        # so paid-down debt must be expired from the committed file.
        bad.write_text("x = 1\n")
        assert main([str(bad), "--baseline", str(baseline_path)]) == 1
        assert "stale" in capsys.readouterr().out
        # --write-baseline expires it; subsequent runs are clean again.
        assert main([str(bad), "--baseline", str(baseline_path), "--write-baseline"]) == 0
        assert Baseline.load(baseline_path).counts == {}


# ----------------------------------------------------------------------
# CLI: exit codes, JSON schema, dedup
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path):
        clean = write(tmp_path, "clean.py", "x = 1\n")
        assert main([str(clean), "--no-baseline"]) == 0

    def test_exit_one_on_findings(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.py", BAD_RNG)
        assert main([str(bad), "--no-baseline"]) == 1
        assert "RPL001" in capsys.readouterr().out

    def test_exit_two_on_bad_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.txt")]) == 2
        assert "error" in capsys.readouterr().err

    def test_exit_two_on_unknown_rule(self, capsys):
        assert main(["--select", "RPL777", "src/repro"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_exit_two_on_malformed_baseline(self, tmp_path, capsys):
        baseline = write(tmp_path, "baseline.json", "{broken")
        clean = write(tmp_path, "clean.py", "x = 1\n")
        assert main([str(clean), "--baseline", str(baseline)]) == 2
        assert "error" in capsys.readouterr().err

    def test_select_limits_rules(self, tmp_path):
        bad = write(tmp_path, "bad.py", BAD_RNG)
        assert main([str(bad), "--no-baseline", "--select", "RPL004"]) == 0
        assert main([str(bad), "--no-baseline", "--select", "RPL001"]) == 1

    def test_json_schema(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.py", BAD_RNG)
        assert main([str(bad), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["files"] == 1
        assert set(payload) == {
            "schema_version",
            "files",
            "findings",
            "baselined",
            "stale_baseline",
            "suppressed",
            "counts",
        }
        (finding,) = payload["findings"]
        assert set(finding) == {"code", "path", "line", "col", "message", "fingerprint"}
        assert finding["code"] == "RPL001"
        assert payload["counts"] == {"RPL001": 1}

    def test_multi_file_dedup(self, tmp_path, capsys):
        """The same file via two path arguments reports each finding once."""
        bad = write(tmp_path, "bad.py", BAD_RNG)
        assert main([str(bad), str(bad), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 1
        assert len(payload["findings"]) == 1

    def test_directory_and_file_overlap_dedup(self, tmp_path, capsys):
        write(tmp_path, "bad.py", BAD_RNG)
        assert main(
            [str(tmp_path), str(tmp_path / "bad.py"), "--no-baseline", "--format", "json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 1
        assert len(payload["findings"]) == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006"):
            assert code in out


# ----------------------------------------------------------------------
# repo invariants enforced by this PR
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_src_repro_is_clean_with_empty_baseline(self):
        """The acceptance bar: no findings and no grandfathered debt."""
        result = run_paths([str(REPO_ROOT / "src" / "repro")], all_rules())
        assert result.all_findings == []
        committed = Baseline.load(REPO_ROOT / "tools" / "reprolint" / "baseline.json")
        assert committed.counts == {}, "RPL001/RPL002 debt must be fixed, not baselined"


class TestCheckpointCoverage:
    """RPL002 covers every trainer through ``TrainLoop``, and the GAN balancer."""

    @staticmethod
    def _lint_gan(tmp_path: Path, leaky_class: str | None):
        source = (REPO_ROOT / "src" / "repro" / "experiments" / "gan.py").read_text()
        if leaky_class is not None:
            start = source.index(f"class {leaky_class}")
            init = source.index("    def __init__(", start)
            body = source.index("    ):\n", init) + len("    ):\n")
            source = source[:body] + "        self.leaky_counter = []\n" + source[body:]
        gan = write(tmp_path, "gan.py", source)
        loop = write(
            tmp_path, "loop.py", (REPO_ROOT / "src" / "repro" / "train" / "loop.py").read_text()
        )
        return run_paths([str(gan), str(loop)], all_rules()).all_findings

    def test_loop_hooks_count_as_checkpointed(self, tmp_path):
        assert self._lint_gan(tmp_path, None) == []

    @pytest.mark.parametrize("leaky_class", ["GANTrainer", "GanDensityBalancer"])
    def test_planted_leak_is_flagged(self, tmp_path, leaky_class):
        findings = self._lint_gan(tmp_path, leaky_class)
        assert [finding.code for finding in findings] == ["RPL002"]
        assert f"self.leaky_counter of stateful class {leaky_class}" in findings[0].message
