"""A catalogue of mutants: small faults in src/ that named tests must catch.

Each Mutant replaces one exact text of one file under src/ with another,
and names the tests (pytest ids, relative to the repository root) of
which at least one must fail once it is applied.  Run as a script:

    python tests/mutants.py

It copies the checkout (without .git and caches) to a temporary
directory, because tests/conftest.py puts its own checkout's src/ first
on the path.  There it runs the named tests on the unmutated copy, which
must pass, and then applies one mutant at a time and runs
`python -m pytest -q -x` on that mutant's tests.  A mutant whose tests
pass survives; the script prints each mutant's outcome and exits 1 if
one survived or a run could not be made.

EQUIVALENT lists mutants that no count can tell apart from the code,
with the reason; they are not run.  tests/test_mutants.py checks that
every old text still occurs exactly once, so a change that rewrites a
catalogued line must update its entry.  Only the standard library is
used, and pytest does not collect this file.
"""

import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# file is relative to src/; tests are pytest ids relative to ROOT
Mutant = namedtuple("Mutant", "name file old new tests")
Equivalent = namedtuple("Equivalent", "name file old new reason")

LATTICE = "gramcode/lattice.py"
CODEC = "gramcode/codec.py"
GRAMS = "gramcode/grams.py"
GRAPHS = "gramcode/graphs.py"
AECC = "gramcode/aecc.py"
CHANNEL = "gramcode/channel.py"
CLI = "gramcode/cli.py"
FRONTIER_COUNTS = (
    "tests/test_properties.py::test_fold_count_on_each_tail_shape",
    "tests/test_properties.py::test_frontier_count_matches_the_scan",
    "tests/test_lattice.py::test_frontier_merges_exactly_the_scan_states",
)
FOLD_COUNTS = (
    "tests/test_properties.py::test_fold_count_on_each_tail_shape",
    "tests/test_properties.py::test_fold_count_matches_the_scan",
    "tests/test_lattice.py::test_count_stops_at_the_outer_level",
)
FIT_PERIODS = (
    "tests/test_lattice.py::test_fit_proves_its_period",
    "tests/test_cli.py::test_fit_at_a_wrong_period_exits_3",
    "tests/test_properties.py::test_every_accepted_fit_matches_the_counts",
)
BLOCK_FOLD_COUNTS = (
    "tests/test_lattice.py::test_block_counts_fold_exactly",
    "tests/test_lattice.py::test_block_fold_with_incompatible_classes_counts_zero",
)
GRAPH_COUNTS = (
    "tests/test_lattice.py::test_fit_plans_each_mode_once",
    "tests/test_lattice.py::test_plans_and_tails_do_not_depend_on_the_mode",
    "tests/test_properties.py::test_every_sample_counts_as_its_own_system",
)
SEEDED_COUNTS = ("tests/test_properties.py::test_every_sample_counts_as_its_own_system",)
# cmd_roundtrip's two readouts and the rank preset's setup between them
SYSTEMATIC_READOUT = """\
            emit("observed", observed)
            book = codec.systematic_grc(product(range(2), repeat=3), layout, n, distance=1)
            codeword = codec.decode_profile(book, observed).codeword
            decoded = tuple(codeword[a] for a in layout.info_positions)
            emit("decoded-message", decoded)
"""
RANK_SETUP = """\
            return decoded
    else:
        layout = codec.rank_modulation_layout(2, 3)
        encode, key, default, n = codec.rank_encode, "permutation", "0,1,2", args.n or 14

        def readout(observed):
"""
RANK_READOUT = """\
            decoded, ties = codec.rank_readout_decode(layout, observed)
            emit("decoded-permutation", decoded)
            emit("ties", ties)
"""

MUTANTS = (
    # the merged frontier (count by states)
    Mutant("frontier merges states that differ only in rem", LATTICE,
           "state = (rem - c, *miss)",
           "state = next((k for k in nxt if k[1:] == tuple(miss)), (rem - c, *miss))",
           FRONTIER_COUNTS),
    Mutant("frontier keys a value that is not state", LATTICE,
           "state = (rem - c, *miss)",
           "state = (rem - c, c, *miss)",
           ("tests/test_lattice.py::test_frontier_merges_exactly_the_scan_states",)),
    Mutant("frontier cut counts the arc's ends twice", LATTICE,
           "rest = sum(m for m in miss if m > 0) - (ma if ma > 0 else 0) - (mb if mb > 0 else 0)",
           "rest = sum(m for m in miss if m > 0)",
           FRONTIER_COUNTS),
    Mutant("frontier drops a level's largest value", LATTICE,
           "for c in range(lo, hi + 1):",
           "for c in range(lo, hi):",
           FRONTIER_COUNTS),
    # the frontier's seeds, one per sample
    Mutant("merged state keeps only the first seed's multiplicity", LATTICE,
           "[x + y for x, y in zip(have, mults)]",
           "[have[0] + mults[0], *have[1:]]",
           SEEDED_COUNTS),
    Mutant("seed's count lands in the slot before its own", LATTICE,
           "counts[slot] += points * mult",
           "counts[slot - 1] += points * mult",
           SEEDED_COUNTS),
    Mutant("both modes seeded with the first sample's targets", LATTICE,
           "[(p.total, *p.targets) for p in plans]",
           "[(p.total, *plan.targets) for p in plans]",
           SEEDED_COUNTS),
    # the two-level fold (_fold_tail and _fold_count)
    Mutant("fold moves each row against its c1 coefficient", LATTICE,
           "x += alpha * c1",
           "x -= alpha * c1",
           FOLD_COUNTS),
    Mutant("fold drops the outer value's largest value", LATTICE,
           "for c1 in range(lo, hi + 1):",
           "for c1 in range(lo, hi):",
           FOLD_COUNTS),
    Mutant("fold keeps the pin's residue class at c1 = 0", LATTICE,
           "x = p_x + p_alpha * c1",
           "x = p_x",
           FOLD_COUNTS),
    Mutant("fold with one free decision loses its one-pass row", LATTICE,
           "forms.append({-5: -1})",
           "pass",
           FOLD_COUNTS),
    Mutant("fold drops the closure row of a node not last in its component", LATTICE,
           "if a_in and a_out and b_in and b_out and last[min(part[a])] > i:",
           "if False:",
           FOLD_COUNTS),
    Mutant("fold compiles the closure row of a component's last node", LATTICE,
           "last[min(part[a])] > i:",
           "last[min(part[a])] >= i:",
           ("tests/test_lattice.py::test_no_tail_row_holds_in_every_state",)),
    Mutant("fold keeps the rows that hold on every state", LATTICE,
           "if terms or min(k_rem, k_rem + alpha, k_rem + beta) < 0:",
           "if True:",
           ("tests/test_lattice.py::test_no_tail_row_holds_in_every_state",)),
    # the fold of a count with a congruence block
    Mutant("fold drops the pivot's class", LATTICE,
           "r, p = pivot",
           "r, p = 0, 1",
           BLOCK_FOLD_COUNTS),
    Mutant("fold's CRT keeps only the pin's class", LATTICE,
           "r0 += m * ((r - r0) * pow(m, -1, p) % p)\n                m *= p",
           "pass",
           BLOCK_FOLD_COUNTS),
    Mutant("fold counts incompatible pin and pivot classes", LATTICE,
           "elif (r0 - r) % p:",
           "elif False:",
           BLOCK_FOLD_COUNTS),
    Mutant("fold applied when the pinned level is a pivot", LATTICE,
           "if pivots is None or pinned in pivots:",
           "if pivots is None:",
           BLOCK_FOLD_COUNTS),
    Mutant("fold's pivot residue off by one", LATTICE,
           "(r, p) if i in pivots else None",
           "(r + 1, p) if i in pivots else None",
           BLOCK_FOLD_COUNTS),
    # the fit
    Mutant("reciprocity sign forced to +1", LATTICE,
           "n if m >= lowest else (-1) ** dim * n",
           "n",
           ("tests/test_properties.py::test_fit_matches_the_same_mode_fit",
            "tests/test_cli.py::test_fit_output_is_golden_but_for_the_held_out_t")),
    # one plan per mode for a graph's many samples (_count_samples)
    Mutant("samples keep the total their plan was built at", LATTICE,
           "._replace(total=m - plans[mode].shift * graph.n_arcs)",
           "._replace()",
           GRAPH_COUNTS),
    Mutant("samples' totals forget the mode-E shift", LATTICE,
           "total=m - plans[mode].shift * graph.n_arcs",
           "total=m",
           GRAPH_COUNTS),
    Mutant("samples reuse the first mode's plan for the other", LATTICE,
           "[plans[mode]._replace(",
           "[next(iter(plans.values()))._replace(",
           GRAPH_COUNTS),
    Mutant("fit skips its period proof", LATTICE,
           "if lam % period:",
           "if False:",
           FIT_PERIODS),
    Mutant("fit's period proof takes the lcm for the gcd", LATTICE,
           "g = gcd(lam, period)",
           "g = lcm(lam, period)",
           FIT_PERIODS),
    Mutant("fit's period proof compares only the first class", LATTICE,
           "if any(values != in_m[0] for values in in_m):",
           "if any(values != in_m[0] for values in in_m[:1]):",
           FIT_PERIODS),
    Mutant("a fit below the dimension keeps its low coefficients", LATTICE,
           "if any(coeffs[degree + 1 :]):",
           "if False:",
           ("tests/test_lattice.py::test_fit_below_the_dimension_is_refused",
            "tests/test_cli.py::test_fit_below_the_dimension_exits_3")),
    # the codebook path
    Mutant("bounded distance stops at equality", GRAMS,
           "if up > best:",
           "if up >= best:",
           ("tests/test_properties.py::test_decode_profile_matches_the_full_scan",)),
    Mutant("intersection book skips its component check", CODEC,
           "if points and len(strongly_connected_components(graph)) > 1:",
           "if False:",
           ("tests/test_codec.py::test_grc_intersect_refuses_a_disconnected_support",)),
    # the storage message path
    Mutant("successor stacks built smallest terminal first", GRAPHS,
           "for a in reversed(arcs)",
           "for a in arcs",
           ("tests/test_graphs.py::test_eulerian_walk_matches_the_cursor_scan",)),
    Mutant("walk skips its every-arc-used check", GRAPHS,
           "if len(output) != total + 1:",
           "if False:",
           ("tests/test_graphs.py::test_eulerian_walk_matches_the_cursor_scan",
            "tests/test_graphs.py::test_eulerian_walk_rejects_bad_multisets")),
    Mutant("primality by trial division up to 43 squared", AECC,
           "if n < 41 * 41:",
           "if n < 43 * 43:",
           ("tests/test_aecc.py::test_primality_against_sieve",)),
    # a decorator memoising on (p, alphas) alone
    Mutant("power rows cached without d in the key", AECC,
           "@cache\ndef _power_rows(",
           "@lambda f: lambda p, alphas, d, rows={}: rows.setdefault((p, alphas), f(p, alphas, d))"
           "\ndef _power_rows(",
           ("tests/test_aecc.py::test_build_code_rows_follow_d",)),
    # the algebraic decode and the pattern search past d
    Mutant("locator weight taken as the smallest nonzero k", AECC,
           "w = max(k for k, e in enumerate(elementary) if e)",
           "w = min((k for k, e in enumerate(elementary) if e and k), default=0)",
           ("tests/test_properties.py::test_decode_bounded_matches_the_exhaustive_oracle",)),
    Mutant("locator candidate kept past max_weight", AECC,
           "if w <= max_weight and len(locator) == 1",
           "if len(locator) == 1",
           ("tests/test_properties.py::test_decode_bounded_matches_the_exhaustive_oracle",)),
    Mutant("pattern search skips the negative received entries", AECC,
           "if any(received[i] + support.count(i) < 0 for i in short):",
           "if False:",
           ("tests/test_aecc.py::test_pattern_search_matches_exhaustive_oracle",)),
    Mutant("pattern guard refuses a count at MAX_CUBE", AECC,
           "if patterns > MAX_CUBE:",
           "if patterns >= MAX_CUBE:",
           ("tests/test_aecc.py::test_pattern_search_stops_at_the_cube_guard",)),
    # the roundtrip pipeline
    Mutant("roundtrip presets swap their readouts", CLI,
           SYSTEMATIC_READOUT + RANK_SETUP + RANK_READOUT,
           RANK_READOUT + RANK_SETUP + SYSTEMATIC_READOUT,
           ("tests/test_cli.py::test_roundtrip_presets",)),
    Mutant("sample forgets where an earlier swap moved i", CHANNEL,
           "moved[j] = moved.get(i, i)",
           "moved[j] = i",
           ("tests/test_channel.py::test_sample_matches_the_list_fisher_yates",)),
)

EQUIVALENT = (
    Equivalent("fold without its Fourier-Motzkin rows", LATTICE,
               "forms.append(_add(_add({}, low, -high[-3]), high, low[-3]))",
               "pass",
               "pure pruning: a c1 whose real interval of c is empty counts 0 without them"),
    Equivalent("fold starts c's upper bound at rem", LATTICE,
               "c_lo, c_hi = 0, rem - c1",
               "c_lo, c_hi = 0, rem",
               "the tail's rows already bound c by rem - c1: its values are >= 0 and sum to rem"),
)


def _run(copy, tests):
    """pytest's exit status on tests in copy: 0 passed, 1 a test failed."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main():
    bad = 0
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        baseline = sorted({test for m in MUTANTS for test in m.tests})
        if _run(copy, baseline):
            print("the unmutated tree fails the named tests")
            return 1
        for m in MUTANTS:
            path = copy / "src" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{'stale':<9}{m.name}: its old text does not occur once")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            status = _run(copy, m.tests)
            path.write_text(text)
            outcome = {0: "SURVIVED", 1: "killed"}.get(status, f"pytest exit {status}")
            print(f"{outcome:<9}{m.name}")
            bad += status != 1
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
