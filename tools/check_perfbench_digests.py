"""CI guard: a perfbench run must succeed and reproduce the pinned digests.

Usage::

    python tools/check_perfbench_digests.py -- python3 perfbench/run.py \\
        --workload corridor_dense --seconds 1

Runs the command after ``--`` from the repository root, echoing its
output.  Each workload report in that output opens with a
``workload <name> seed <seed> trace <0|1>`` line and carries a
``digest <sha256>`` line; every such digest must equal the unit digest
of the same workload and seed in the default-seed table of
``perfbench/README.md``.  Exit status: the command's own status when it
failed, 1 when a digest differs, is missing or has no table entry (or
the report flags a digest mismatch between its runs), 0 otherwise.
"""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "perfbench" / "README.md"

#: ``| `workload` | seed | `digest` |`` rows of the README's digest table.
_TABLE_ROW = re.compile(r"^\| `(\w+)` \| (\d+) \| `([0-9a-f]{64})` \|\s*$")
_WORKLOAD = re.compile(r"^workload (\w+) seed (\d+) trace [01]\s*$")
_DIGEST = re.compile(r"^digest ([0-9a-f]{64}) ")


def pinned_digests(readme: str) -> dict[tuple[str, int], str]:
    """``(workload, seed) → unit digest`` from the README's table."""
    pinned = {}
    for line in readme.splitlines():
        match = _TABLE_ROW.match(line)
        if match:
            pinned[(match.group(1), int(match.group(2)))] = match.group(3)
    return pinned


def check_output(output: str, pinned: dict[tuple[str, int], str]) -> list[str]:
    """Problems found in a perfbench run's output (empty when it is clean)."""
    problems = []
    reports = 0
    current: tuple[str, int] | None = None
    digest_seen = True
    for line in output.splitlines():
        match = _WORKLOAD.match(line)
        if match:
            if not digest_seen:
                problems.append(f"{current[0]} seed {current[1]}: no digest line")
            current = (match.group(1), int(match.group(2)))
            digest_seen = False
            reports += 1
            continue
        if line.startswith("digest MISMATCH"):
            problems.append(f"{current}: {line.strip()}")
            continue
        match = _DIGEST.match(line)
        if match and current is not None:
            digest_seen = True
            expected = pinned.get(current)
            if expected is None:
                problems.append(
                    f"{current[0]} seed {current[1]}: no pinned digest in {README.name}"
                )
            elif match.group(1) != expected:
                problems.append(
                    f"{current[0]} seed {current[1]}: digest {match.group(1)} "
                    f"!= pinned {expected}"
                )
    if current is not None and not digest_seen:
        problems.append(f"{current[0]} seed {current[1]}: no digest line")
    if not reports:
        problems.append("no workload report in the output")
    return problems


def main(argv: list[str]) -> int:
    if "--" not in argv or argv.index("--") == len(argv) - 1:
        print(__doc__, file=sys.stderr)
        return 2
    command = argv[argv.index("--") + 1:]
    result = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        print(f"perfbench exited with status {result.returncode}", file=sys.stderr)
        return result.returncode
    problems = check_output(result.stdout, pinned_digests(README.read_text("utf-8")))
    for problem in problems:
        print(f"digest check: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
