"""Mutation gate: every catalogued fault must fail the tests named to catch it.

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones

Each mutant replaces one piece of text, which must occur exactly once in
its file, in a temporary copy of src/ and tests/, and runs pytest with -x
on the test files that must kill it. A mutant is killed when pytest exits
1 (a test failed) or 2 (collection failed), and survives when it exits 0.
The run fails if a mutant survives its tests; if its old text no longer
occurs exactly once, as then the catalogue has drifted from the code and
the entry must be updated; and on any other exit, such as 4 for a missing
test file or 5 for a selection that collects nothing, as then the entry
cannot kill anything.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAMPAIGN = "src/netcolor/campaign.py"
CLI = "src/netcolor/cli.py"
ENGINE = "src/netcolor/engine.py"
ORACLE = "src/netcolor/oracle.py"

# name: (file, old text, new text, test files that must kill it)
MUTANTS = {
    # no tested law had a tail of exactly the floor until the equality test
    "size floor holds only above the floor": (
        ORACLE,
        "holds=good * AVAILABLE_SIZE_FLOOR.denominator >= AVAILABLE_SIZE_FLOOR.numerator * size,",
        "holds=good * AVAILABLE_SIZE_FLOOR.denominator > AVAILABLE_SIZE_FLOOR.numerator * size,",
        ["tests/test_oracle.py"],
    ),
    "two-round law drops the colors no one in the 2-ball holds": (
        ORACLE,
        "count = clear.sum(axis=1) + wide",
        "count = clear.sum(axis=1)",
        ["tests/test_oracle.py"],
    ),
    "two-round law lets a neighbor clash with v's color without drawing it": (
        ORACLE,
        "clear *= sizes[:, c, None] - allowed[:, c]",
        "clear *= sizes[:, c, None]",
        ["tests/test_oracle.py"],
    ),
    "two-round law skips the round-two cap": (
        ORACLE,
        "(sizes == 0).any(axis=1) | (size2 > ENUMERATION_CAP)",
        "(sizes == 0).any(axis=1)",
        ["tests/test_oracle.py"],
    ),
    "frugal option table drops the player's own color": (
        ORACLE,
        "free = ~used if strategy is Strategy.GREEDY else ~used | own",
        "free = ~used",
        ["tests/test_oracle.py"],
    ),
    # only the refusal reads the sizes, so the refused support's number changes
    "the size of a frugal available set drops the player's own color": (
        ORACLE,
        "sizes = [k - len(used) + (keeps_own and colors[u] in used) for u, used in used_of.items()]",
        "sizes = [k - len(used) for u, used in used_of.items()]",
        ["tests/test_oracle.py"],
    ),
    "two-round law never relabels its outcomes": (
        ORACLE,
        "named = _relabel_rows(rows) if k > width else rows",
        "named = rows",
        ["tests/test_oracle.py"],
    ),
    # one round-one outcome is skipped at each chunk boundary
    "two-round law strides past its chunks": (
        ORACLE,
        "for lo in range(0, size1, step):",
        "for lo in range(0, size1, step + 1):",
        ["tests/test_oracle.py"],
    ),
    # Not catalogued: the two-round law's unhappy mask left uncut, over the
    # whole 2-ball. It is equivalent: no arc leaves a column past N[v], so
    # the extra columns are happy and hold only their own color; their
    # size 1 multiplies every product by 1 and they add 0 to the k - width
    # term.
    "trap search follows transitions forward": (
        ORACLE,
        "dijkstra(chain.T, indices=proper, min_only=True, unweighted=True)",
        "dijkstra(chain, indices=proper, min_only=True, unweighted=True)",
        ["tests/test_oracle.py"],
    ),
    # every class that misses the first proper class then counts as trapped
    "trap search starts from the first proper class only": (
        ORACLE,
        "dijkstra(chain.T, indices=proper, min_only=True, unweighted=True)",
        "dijkstra(chain.T, indices=proper[:1], min_only=True, unweighted=True)",
        ["tests/test_oracle.py"],
    ),
    "chain probabilities read at the target's fan-out": (
        ORACLE,
        "chain = csr_array((1.0 / fanout[src], (src, dst)), shape=(states, states))",
        "chain = csr_array((1.0 / fanout[dst], (src, dst)), shape=(states, states))",
        ["tests/test_oracle.py"],
    ),
    "a scalar-round mover never draws its largest available color": (
        ENGINE,
        "return [rng.randrange(s) if s > 1 else 0 for s in sizes]",
        "return [min(rng.randrange(s), s - 2) if s > 1 else 0 for s in sizes]",
        ["tests/test_verification.py"],
    ),
    "a vector-round mover never draws its largest available color": (
        ENGINE,
        "ranks[drawn] = _randrange_each(rng, sizes[drawn])",
        "ranks[drawn] = np.minimum(_randrange_each(rng, sizes[drawn]), sizes[drawn] - 2)",
        ["tests/test_engine.py"],
    ),
    # each clashing edge marks only its lower endpoint, in either scan
    "the Python scan misses a clash with a lower neighbor": (
        ENGINE,
        "                if colors[u] == c:",
        "                if colors[u] == c and u > v:",
        ["tests/test_engine.py"],
    ),
    # Not catalogued: bad[dst[...]] for bad[src[...]] is equivalent, since
    # every edge is stored in both orientations, so the clashing arcs' heads
    # and tails are the same set of vertices.
    "the numpy scan misses a clash with a lower neighbor": (
        ENGINE,
        "bad[src[colors[src] == colors[dst]]] = True",
        "bad[src[(colors[src] == colors[dst]) & (src < dst)]] = True",
        ["tests/test_engine.py"],
    ),
    "frugal drops its own color": (
        ENGINE,
        'return strategy._value_ == "frugal"',
        "return False",
        ["tests/test_verification.py"],
    ),
    "greedy keeps its own color": (
        ENGINE,
        'return strategy._value_ == "frugal"',
        "return True",
        ["tests/test_verification.py"],
    ),
    "the path check lets two flags name one file": (
        CLI,
        'raise UsageError(f"{named[real]} and {name} name one file: {path}")',
        "pass",
        ["tests/test_cli.py"],
    ),
    "a copied span's number is written one byte late": (
        CAMPAIGN,
        "for pos, digit in enumerate(number, at):",
        "for pos, digit in enumerate(number, at + 1):",
        ["tests/test_rounds_csv.py"],
    ),
    "a formatted span takes its round digits from the next row": (
        CAMPAIGN,
        "table[:, pos] = _OFFSET_DIGITS[first_offset : first_offset + m, col]",
        "table[:, pos] = _OFFSET_DIGITS[first_offset + 1 : first_offset + 1 + m, col]",
        ["tests/test_rounds_csv.py"],
    ),
}


def apply(tree: Path, name: str) -> str | None:
    """Write the mutant into tree; the drift message when its old text does not fit."""
    file, old, new, _ = MUTANTS[name]
    path = tree / file
    text = path.read_text()
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times in {file}, not once"
    path.write_text(text.replace(old, new))
    return None


# pytest's exit codes that kill a mutant: 1, a test failed; 2, collection
# failed, as on an error the mutant raised at import
KILLS = (1, 2)


def verdict(returncode: int) -> str:
    """killed, SURVIVED or BROKEN, from the exit code of pytest on a mutant's tests."""
    if returncode == 0:
        return "SURVIVED"
    if returncode in KILLS:
        return "killed"
    return f"BROKEN (pytest exit {returncode})"


def run_tests(tree: Path, name: str) -> int:
    """pytest's exit code on the mutant's tests in tree, with its own src/ on the path."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run(
        [sys.executable, "-c", "import netcolor; print(netcolor.__file__)"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(tree):
        raise RuntimeError(f"netcolor imported from {where}, not from the mutated copy")
    tests = MUTANTS[name][3]
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    ).returncode


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {list(MUTANTS)}")
        return 2
    failed = 0
    for name in names or MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
            for part in ("src", "tests"):
                shutil.copytree(ROOT / part, tree / part, ignore=ignore)
            shutil.copy(ROOT / "pyproject.toml", tree)
            start = time.perf_counter()
            drift = apply(tree, name)
            outcome = (f"DRIFTED ({drift})" if drift is not None
                       else verdict(run_tests(tree, name)))
        failed += outcome != "killed"
        print(f"{outcome:8s} {time.perf_counter() - start:6.1f} s  {name}", flush=True)
    print(f"{failed} of {len(names or MUTANTS)} mutants not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
