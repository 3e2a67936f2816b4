"""Mutation checks: each known defect must make the tier-1 suite fail.

``MUTANTS`` lists deliberate defects of the coset enumerator, the central
generators, the free reduction of parsed powers, the verdict gate, the
Seifert flag policies, the class pairs, the Wh1 algebra and the command
line, each as a file under ``src/``, the exact text it replaces and the text
that replaces it.
For each one the script copies ``src/`` to a temporary directory, applies
the edit there and runs the tier-1 suite against the copy with ``pytest -x``
under a time limit: first the tests named in the entry, the ones meant to
kill it, then, if they pass, the whole suite.  The repository itself is
never edited.  A mutant is *killed* when a test fails or runs past the
per-test limit, *killed by the limit* when a whole run does not finish in
time (a corrupted scan can loop for ever), and *survived* when every test
passes.

Run ``python tests/mutants.py`` from any directory; it exits 1 when a
mutant survives, or cannot be applied or tested (an old text that does not
occur exactly once, a named test that does not exist).  Tier-1 checks only
that every old text still occurs exactly once and every named test exists
(``tests/test_coset.py``), so that the list cannot rot silently; the
thirty-three mutants here take about 70 s together on a 2-vCPU host.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# seconds a pytest run may take; tier-1 takes well under a minute
LIMIT = 300


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    first: str  # the tests run before the whole suite: a file or a test id


COSET = "whdetect/coset.py"
COSET_TESTS = "tests/test_coset.py"
CATALOG = "whdetect/catalog.py"
CATALOG_TESTS = "tests/test_catalog.py"
PIPELINE = "whdetect/pipeline.py"
PIPELINE_TESTS = "tests/test_pipeline.py"
WHITEHEAD = "whdetect/whitehead.py"
WHITEHEAD_TESTS = "tests/test_whitehead.py"

MUTANTS = (
    Mutant(
        "jump skips rep",
        COSET,
        "                if parent[f] != f:\n"
        "                    f = self.rep(f)\n",
        "",
        f"{COSET_TESTS}::test_jump_lands_on_a_live_coset",
    ),
    Mutant(
        "power scan skipped once",
        COSET,
        "if marks is not None and marks[alpha]:",
        "if marks is not None and (marks[alpha] or alpha == 0):",
        f"{COSET_TESTS}::test_skip_matches_plain_hlt_on_catalog",
    ),
    Mutant(
        "jump one place short",
        COSET,
        "f = cycle[(run[1][f] + run[2] * (end - start)) % len(cycle)]",
        "f = cycle[(run[1][f] + run[2] * (end - start - 1)) % len(cycle)]",
        COSET_TESTS,
    ),
    Mutant(
        "definition run without its re-read",
        COSET,
        "            if backward[j][b] >= 0:  # b was just extended by x_j^-1, to f\n"
        "                b, j = f, j - 1\n",
        "",
        f"{COSET_TESTS}::test_definition_run_rereads_the_backward_entry",
    ),
    Mutant(
        "growth past the budget",
        COSET,
        "        if self.size == self.max_cosets:\n"
        "            raise EnumerationBudgetExceeded("
        'f"coset budget {self.max_cosets} exhausted")\n',
        "",
        COSET_TESTS,
    ),
    Mutant(
        "merge keeps the higher number",
        COSET,
        "lo, hi = (x, y) if x < y else (y, x)",
        "lo, hi = (y, x) if x < y else (x, y)",
        COSET_TESTS,
    ),
    Mutant(
        "a run of two or more written from its one column one repetition short",
        COSET,
        "            forward += [cols[c]] * k\n"
        "            backward += [cols[c ^ 1]] * k\n",
        "            forward += [cols[c]] * max(k - 1, 1)\n"
        "            backward += [cols[c ^ 1]] * max(k - 1, 1)\n",
        f"{COSET_TESTS}::test_skip_matches_plain_hlt_on_catalog",
    ),
    Mutant(
        "a relator one letter short of a power taken for one",
        COSET,
        "if len(w) == 1 < w[0][1]",
        "if len(w) == 1 <= w[0][1]",
        f"{COSET_TESTS}::test_only_powers_of_one_generator_are_marked",
    ),
    # g^k and g^-k land on one coset of a cycle of length 2k, as a^l and
    # a^-l do on the dicyclic a-cycles, so the catalog cannot tell the sign
    Mutant(
        "a crossed run's sign dropped",
        COSET,
        "(*index[g], s)",
        "(*index[g], 1)",
        f"{COSET_TESTS}::test_enumeration_digest_is_pinned",
    ),
    # the central generators, and the run reduction of parsed powers
    Mutant(
        "the central test compares x.y with itself",
        COSET,
        "return tuple(map(eq, products, zip(*products)))",
        "return tuple(map(eq, products, products))",
        "tests/test_analysis.py::test_orbit_classes_match_brute_force",
    ),
    Mutant(
        "a central letter's inverse read from the column of x, not x^-1",
        COSET,
        "list(map(itemgetter(col), table))",
        "list(map(itemgetter(c), table))",
        f"{COSET_TESTS}::test_table_primitives_match_mul_and_inv",
    ),
    Mutant(
        "a partly cancelled run loses its remainder",
        "whdetect/words.py",
        "                m -= c\n",
        "                m = 0\n",
        "tests/test_words.py::test_parsed_powers_reduce_as_runs",
    ),
    # the verdict gate and the Seifert flag policies
    Mutant(
        "a k1 of None passes the gate",
        PIPELINE,
        "if k1_trivial is not True or goodness is not Goodness.GOOD:",
        "if k1_trivial is False or goodness is not Goodness.GOOD:",
        f"{PIPELINE_TESTS}::test_verdict_gating_property",
    ),
    Mutant(
        "unknown goodness passes the gate",
        PIPELINE,
        "if k1_trivial is not True or goodness is not Goodness.GOOD:",
        "if k1_trivial is not True:",
        f"{PIPELINE_TESTS}::test_verdict_gating_property",
    ),
    Mutant(
        "chi >= 0 made strict in the goodness policy",
        CATALOG,
        "orbifold_euler_characteristic(s) >= 0",
        "orbifold_euler_characteristic(s) > 0",
        f"{CATALOG_TESTS}::test_flag_policy_grid",
    ),
    Mutant(
        "k1 trivial for every orientable base",
        CATALOG,
        "(s.epsilon is Epsilon.O1 and s.genus <= 1)",
        "(s.epsilon.orientable_base and s.genus <= 1)",
        f"{CATALOG_TESTS}::test_flag_policy_grid",
    ),
    Mutant(
        "k1 trivial up to genus 2",
        CATALOG,
        "(s.epsilon is Epsilon.O1 and s.genus <= 1)",
        "(s.epsilon is Epsilon.O1 and s.genus <= 2)",
        f"{CATALOG_TESTS}::test_flag_policy_grid",
    ),
    Mutant(
        "goodness up to genus 2",
        CATALOG,
        "(s.genus <= 1 and orbifold_euler_characteristic(s) >= 0)",
        "(s.genus <= 2 and orbifold_euler_characteristic(s) >= 0)",
        f"{CATALOG_TESTS}::test_flag_policy_grid",
    ),
    Mutant(
        "the lemma's fiber order > 2 made >= 2",
        CATALOG,
        "res.order > 2",
        "res.order >= 2",
        f"{CATALOG_TESTS}::test_lemma74_inconclusive_cases",
    ),
    Mutant(
        "the fiber central for o2",
        CATALOG,
        "return self in (Epsilon.O1, Epsilon.N1)",
        "return self in (Epsilon.O1, Epsilon.O2, Epsilon.N1)",
        f"{CATALOG_TESTS}::test_fiber_central_for_o1_n1_only",
    ),
    Mutant(
        "spherical without e != 0",
        CATALOG,
        "            and euler_number(self) != 0\n",
        "",
        f"{CATALOG_TESTS}::test_fiber_order_rule_infinite_cases",
    ),
    Mutant(
        "any lemma verdict certifies",
        PIPELINE,
        "certified = verdict74 is Lemma74Verdict.NOT_AMBIVALENT",
        "certified = verdict74 is not None",
        "tests/test_golden.py::test_reports_match_golden",
    ),
    # the class pairs and the invariant factors
    Mutant(
        "a self-inverse class paired with itself",
        "whdetect/analysis.py",
        "if c < cbar",
        "if c <= cbar",
        "tests/test_analysis.py",
    ),
    Mutant(
        "the Smith normal form without its non-divisor step",
        WHITEHEAD,
        "        if bad is not None:\n"
        "            A[t] = [x + y for x, y in zip(A[t], A[bad])]\n"
        "            continue\n",
        "",
        f"{WHITEHEAD_TESTS}::test_snf_diagonal_equals_certified_oracle",
    ),
    Mutant(
        "the invariant chain pairs the largest powers with the smallest",
        WHITEHEAD,
        "sorted(exps, reverse=True)",
        "sorted(exps)",
        f"{WHITEHEAD_TESTS}::test_invariant_chain_equals_the_diagonal_cokernel",
    ),
    Mutant(
        "the action's relators unchecked",
        WHITEHEAD,
        "    for rel in G.source.relators:\n        acc = 0  # the identity\n",
        "    for rel in ():\n        acc = 0  # the identity\n",
        f"{WHITEHEAD_TESTS}::test_action_breaking_a_relator_rejected",
    ),
    # the numbered image of the action: ids of unreduced matrices tell -1
    # and 5 modulo 6 apart, and a product stored for the unordered pair
    # answers b a with a b
    Mutant(
        "action matrices numbered before reduction",
        WHITEHEAD,
        "key = tuple(map(tuple, reduced))",
        "key = tuple(map(tuple, mat))",
        f"{WHITEHEAD_TESTS}::test_sign_action_on_torsion_consistent",
    ),
    Mutant(
        "products memoized by the unordered pair",
        WHITEHEAD,
        "        key = (a, b)\n",
        "        key = (min(a, b), max(a, b))\n",
        f"{WHITEHEAD_TESTS}::test_wh1_general_matches_dense_oracle_non_diagonal",
    ),
    # the elimination along a class's spanning tree; a sign action has
    # M(s) = M(s)^-1, so only the other actions tell the first apart, and
    # only D5 on a pentagon's vertices, whose tree paths mix both generators,
    # tells the side a tree edge multiplies on
    Mutant(
        "a tree edge multiplies by M(s), not M(s)^-1",
        WHITEHEAD,
        "image.mul(mat_inv, q)",
        "image.mul(mat, q)",
        f"{WHITEHEAD_TESTS}::test_wh1_general_matches_dense_oracle_non_diagonal",
    ),
    Mutant(
        "a tree edge sets Q_y M(s)^-1, not M(s)^-1 Q_y",
        WHITEHEAD,
        "image.mul(mat_inv, q)",
        "image.mul(q, mat_inv)",
        f"{WHITEHEAD_TESTS}::test_wh1_general_matches_dense_oracle_non_diagonal",
    ),
    Mutant(
        "a tree edge sets M(s) P_y, not P_y M(s)",
        WHITEHEAD,
        "image.mul(p, mat))",
        "image.mul(mat, p))",
        f"{WHITEHEAD_TESTS}::test_wh1_general_matches_dense_oracle_non_diagonal",
    ),
    Mutant(
        "another edge compares Q_z M(s), not M(s) Q_z",
        WHITEHEAD,
        "image.mul(mat, tree[z][0])",
        "image.mul(tree[z][0], mat)",
        f"{WHITEHEAD_TESTS}::test_wh1_general_matches_dense_oracle_non_diagonal",
    ),
    # only a test that runs the module in a child process sees its exit code
    Mutant(
        "the module entry point drops the exit code",
        "whdetect/cli.py",
        "    sys.exit(main())\n",
        "    main()\n",
        f"{PIPELINE_TESTS}::test_cli_input_error_is_one_line_exit_2",
    ),
)


def occurrences(mutant: Mutant, src: Path = ROOT / "src") -> int:
    return (src / mutant.file).read_text().count(mutant.old)


def _pytest(paths: list[str], src: Path, cwd: Path) -> tuple[str, str]:
    """Run tier-1 pytest on ``paths`` against ``src``: ("passed" | "failed" |
    "timeout" | "error", the first failing test or the tail of the output).
    Only pytest's exit status 1 means that tests ran and one failed."""
    cmd = [
        sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", "--rootdir", str(ROOT),
        *(str(ROOT / p) for p in paths),
    ]
    env = dict(os.environ, PYTHONPATH=str(src))
    # a session of its own, so that ending it also ends the children of tests
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=LIMIT)
    except BaseException as exc:  # the limit, or the harness itself stopped
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            return "timeout", ""
        raise
    if proc.returncode == 0:
        return "passed", ""
    failed = [line for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))]
    if not failed and "Timeout (" in out:  # faulthandler_timeout in pyproject.toml
        failed = ["a test ran past the per-test time limit"]
    # test ids as the suite prints them when run from the repository root
    detail = failed[0] if failed else (out.strip().splitlines() or [""])[-1]
    detail = detail.replace(os.path.relpath(ROOT, cwd) + os.sep, "")
    return ("failed" if proc.returncode == 1 else "error"), detail


def run(mutant: Mutant) -> str:
    """The verdict on one mutant, as a line of the report."""
    with tempfile.TemporaryDirectory(prefix="whdetect-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        count = occurrences(mutant, src)
        if count != 1:
            return f"NOT APPLIED  {mutant.name}: the old text occurs {count} times"
        target = src / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        for paths in ([mutant.first], ["tests"]):
            status, detail = _pytest(paths, src, Path(tmp))
            if status == "failed":
                return f"killed       {mutant.name}: {detail}"
            if status == "timeout":
                return f"killed       {mutant.name}: by the {LIMIT} s limit on {' '.join(paths)}"
            if status == "error":
                return f"NOT RUN      {mutant.name}: {detail}"
    return f"SURVIVED     {mutant.name}"


def main() -> int:
    # stopped by a signal, end the running suite too (see _pytest)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    bad = 0
    for mutant in MUTANTS:
        line = run(mutant)
        print(line, flush=True)
        bad += not line.startswith("killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
