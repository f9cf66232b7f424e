"""The CI perfbench digest guard: table parsing, output checks, exit codes."""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

import check_perfbench_digests as guard  # noqa: E402

DIGEST = "ab" * 32
OTHER = "cd" * 32


def report(workload="corridor_dense", seed=5, digest=DIGEST):
    return (
        f"workload {workload} seed {seed} trace 0\n"
        "fingerprint {} host_probe_ms 1.0/1.0\n"
        f"digest {digest} (rows of one unit, sha256)\n"
        "error_rate 0.0000 fraction (0 failed of 2 rounds)\n"
    )


class TestPinnedTable:
    def test_readme_pins_every_default_seed(self):
        pinned = guard.pinned_digests(guard.README.read_text("utf-8"))
        assert {name for name, _ in pinned} == {
            "urban_table1", "corridor_dense", "trace_dense"
        }
        assert all(len(digest) == 64 for digest in pinned.values())


class TestCheckOutput:
    PINNED = {("corridor_dense", 5): DIGEST, ("urban_table1", 2008): OTHER}

    def test_matching_digests_pass(self):
        output = report() + report("urban_table1", 2008, OTHER)
        assert guard.check_output(output, self.PINNED) == []

    def test_changed_digest_flagged(self):
        (problem,) = guard.check_output(report(digest=OTHER), self.PINNED)
        assert "corridor_dense seed 5" in problem

    def test_unpinned_seed_flagged(self):
        (problem,) = guard.check_output(report(seed=6), self.PINNED)
        assert "no pinned digest" in problem

    def test_missing_digest_and_empty_output_flagged(self):
        headless = "workload corridor_dense seed 5 trace 1\n"
        assert guard.check_output(headless, self.PINNED)
        assert guard.check_output("", self.PINNED)

    def test_run_mismatch_flagged(self):
        output = report() + "digest MISMATCH across runs: ['a', 'b']\n"
        assert guard.check_output(output, self.PINNED)


class TestMain:
    def test_failing_command_status_propagates(self):
        assert guard.main(["--", sys.executable, "-c", "raise SystemExit(3)"]) == 3

    def test_clean_output_passes_and_bad_digest_fails(self, monkeypatch):
        monkeypatch.setattr(
            guard, "pinned_digests", lambda text: {("corridor_dense", 5): DIGEST}
        )
        good = report().replace("\n", "\\n")
        bad = report(digest=OTHER).replace("\n", "\\n")
        assert guard.main(["--", sys.executable, "-c", f"print('{good}')"]) == 0
        assert guard.main(["--", sys.executable, "-c", f"print('{bad}')"]) == 1

    def test_usage_without_command(self):
        assert guard.main([]) == 2
