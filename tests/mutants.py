"""Mutant catalogue for the package's guard and kernel code, run by hand:

    python tests/mutants.py [NAME ...]

Each mutant replaces one exact source fragment with another. The runner
copies ``src/``, ``tests/`` and ``pyproject.toml`` (the pytest settings) to a
temporary directory per mutant, applies the replacement there and runs the
test files that must kill it; a failing run kills the mutant. It prints one
line per mutant and then killed/total over the mutants that are not
equivalent. An equivalent mutant is not run; its fragment is still checked,
so the catalogue cannot go stale unnoticed; ``tests/test_mutants.py`` checks
the fragments in every test run too. Exit status 1 when a mutant
survives or a fragment no longer occurs exactly once. pytest does not collect
this file.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str          # relative to the repository root
    fragment: str      # must occur exactly once in ``file``
    replacement: str
    tests: tuple[str, ...]
    equivalent: str = ""  # why no test can kill it; empty for a real mutant

    def occurrences(self) -> int:
        """How often ``fragment`` occurs in ``file``: once, unless stale."""
        return (ROOT / self.file).read_text().count(self.fragment)


CATALOGUE = (
    Mutant("verdict-upper-edge-open", "src/chsh_steering/steering_witness.py",
           "if value > bound + tol:", "if value >= bound + tol:",
           ("tests/test_steering_witness.py",)),
    Mutant("verdict-lower-edge-open", "src/chsh_steering/steering_witness.py",
           "if value >= bound - tol:", "if value > bound - tol:",
           ("tests/test_steering_witness.py",)),
    Mutant("classify-band-open", "src/chsh_steering/lhs_oracle.py",
           "if abs(f - 1.0) <= band:", "if abs(f - 1.0) < band:",
           ("tests/test_lhs_oracle.py",)),
    Mutant("lp-feasibility-tol-open", "src/chsh_steering/simplex.py",
           "max(residuals) <= tol", "max(residuals) < tol",
           ("tests/test_simplex.py",)),
    Mutant("tie-goes-to-artificial", "src/chsh_steering/simplex.py",
           "if least < -eps and not reduced <= least:",
           "if least < -eps and not reduced < least:",
           ("tests/test_simplex.py",)),
    Mutant("entry-threshold-closed", "src/chsh_steering/simplex.py",
           "elif not reduced < -eps:", "elif not reduced <= -eps:",
           ("tests/test_simplex.py",)),
    Mutant("nan-reduced-accepted", "src/chsh_steering/simplex.py",
           "if not math.isfinite(reduced):", "if False:",
           ("tests/test_simplex.py",)),
    Mutant("artificial-start-flips-zero-rows", "src/chsh_steering/simplex.py",
           "flip = [-1.0 if v < 0.0 else 1.0 for v in b]",
           "flip = [-1.0 if v <= 0.0 else 1.0 for v in b]",
           ("tests/test_simplex.py",)),
    Mutant("lockstep-artificial-start-flips-zero-rows", "src/chsh_steering/simplex.py",
           "flip = np.where(rhs < 0.0, -1.0, 1.0)", "flip = np.where(rhs <= 0.0, -1.0, 1.0)",
           ("tests/test_simplex.py", "tests/test_lhs_oracle.py")),
    Mutant("x-unclamped", "src/chsh_steering/simplex.py",
           "x[var] = max(row[m], 0.0)", "x[var] = row[m]",
           ("tests/test_simplex.py",)),
    Mutant("empty-b-accepted", "src/chsh_steering/simplex.py",
           "if b.ndim != 1 or not b.size:", "if b.ndim != 1:",
           ("tests/test_simplex.py",)),
    Mutant("residual-row-misnamed", "src/chsh_steering/simplex.py",
           "residuals[~var] = row[m]", "residuals[var] = row[m]",
           ("tests/test_simplex.py",)),
    Mutant("decompose-tol-10x", "src/chsh_steering/lhs_oracle.py",
           "if r1 + r2 - 1.0 > WEIGHT_SUM_TOL:",
           "if r1 + r2 - 1.0 > 10.0 * WEIGHT_SUM_TOL:",
           ("tests/test_lhs_oracle.py",)),
    Mutant("density-psd-tol-10x", "src/chsh_steering/qubit_core.py",
           "DENSITY_PSD_TOL = 1e-10", "DENSITY_PSD_TOL = 1e-9",
           ("tests/test_cli.py",)),
    Mutant("scan-margin-zero", "src/chsh_steering/violation_search.py",
           "_MARGIN = 2.0 ** -20", "_MARGIN = 0.0",
           ("tests/test_violation_search.py",)),
    Mutant("scan-margin-2-60", "src/chsh_steering/violation_search.py",
           "_MARGIN = 2.0 ** -20", "_MARGIN = 2.0 ** -60",
           ("tests/test_violation_search.py",)),
    Mutant("band-grid-floor-unchecked", "src/chsh_steering/lhs_oracle.py",
           "if not grid_n >= 8:", "if False:",
           ("tests/test_lhs_oracle.py",)),
    Mutant("grid-n-integer-unchecked", "src/chsh_steering/lhs_oracle.py",
           "operator.index(grid_n)", "grid_n",
           ("tests/test_lhs_oracle.py",)),
    Mutant("weight-check-nan-blind", "src/chsh_steering/lhs_oracle.py",
           "if not weight >= -WEIGHT_NEG_TOL:", "if weight < -WEIGHT_NEG_TOL:",
           ("tests/test_lhs_oracle.py",)),
    Mutant("atom-angle-unchecked", "src/chsh_steering/lhs_oracle.py",
           "if not math.isfinite(self.xi):", "if False:",
           ("tests/test_lhs_oracle.py",)),
    Mutant("state-scan-unvalidated", "src/chsh_steering/violation_search.py",
           "    rho = validate_density(rho)\n", "",
           ("tests/test_violation_search.py",)),
    Mutant("finiteness-unchecked", "src/chsh_steering/qubit_core.py",
           "if not np.isfinite(op).all():", "if False:",
           ("tests/test_qubit_core.py", "tests/test_cli.py")),
    Mutant("middle-knot-unpinned", "src/chsh_steering/homodyne_experiment.py",
           "    grid[DEFAULT_GRID_CELLS // 2] = 0.0\n", "",
           ("tests/test_homodyne_experiment.py",)),
    Mutant("pdf-outcome-unclipped", "src/chsh_steering/homodyne_experiment.py",
           "u = np.clip(root * x, -64.0, 64.0)", "u = root * x",
           ("tests/test_homodyne_experiment.py",)),
    Mutant("bob-half-line-mean-flipped", "src/chsh_steering/homodyne_experiment.py",
           "-1.0 / math.sqrt(2.0 * math.pi)", "1.0 / math.sqrt(2.0 * math.pi)",
           ("tests/test_homodyne_experiment.py",)),
    Mutant("coherence-unrooted", "src/chsh_steering/homodyne_experiment.py",
           "g1 = math.sqrt(eta) * sigma_phi(phi)", "g1 = eta * sigma_phi(phi)",
           ("tests/test_homodyne_experiment.py",)),
    Mutant("cell-rounding-pad-zero", "src/chsh_steering/homodyne_experiment.py",
           "_ROUNDING_PAD = 2.0 ** -46", "_ROUNDING_PAD = 0.0",
           ("tests/test_homodyne_experiment.py",)),
    Mutant("bucket-pad-loose", "src/chsh_steering/homodyne_experiment.py",
           "_ROUNDING_PAD = 2.0 ** -46", "_ROUNDING_PAD = 2.0 ** -6",
           ("tests/test_homodyne_experiment.py",)),
    Mutant("bucket-next-to-zero-decided", "src/chsh_steering/homodyne_experiment.py",
           "    t_true[:, unknown] = np.inf\n    t_false[:, unknown] = -np.inf\n", "",
           ("tests/test_homodyne_experiment.py",)),
    Mutant("bucket-vertex-reach-dropped", "src/chsh_steering/homodyne_experiment.py",
           "0.25 * np.abs(coefficients[:, 2])", "0.0 * np.abs(coefficients[:, 2])",
           ("tests/test_homodyne_experiment.py",)),
    Mutant("t-true-open", "src/chsh_steering/homodyne_experiment.py",
           "yes = u2 >= t_true[b]", "yes = u2 > t_true[b]",
           ("tests/test_homodyne_experiment.py",)),
    Mutant("bucket-side-open", "src/chsh_steering/homodyne_experiment.py",
           "positive = (b >= b_right) == yes", "positive = (b > b_right) == yes",
           ("tests/test_homodyne_experiment.py",)),
    Mutant("undecided-rows-skipped", "src/chsh_steering/homodyne_experiment.py",
           "    positive[rows] = (x >= 0.0) == (mass_below <= u2 * mass)\n", "",
           ("tests/test_homodyne_experiment.py",)),
    Mutant("y-sign-closed", "src/chsh_steering/homodyne_experiment.py",
           "== (mass_below <= u2 * mass)", "== (mass_below < u2 * mass)",
           ("tests/test_homodyne_experiment.py",)),
    Mutant("ratio-tie-last", "src/chsh_steering/simplex.py",
           "if row < 0 or ratio < best:", "if row < 0 or ratio <= best:",
           ("tests/test_simplex.py",)),
    Mutant("screen-slack-zero", "src/chsh_steering/violation_search.py",
           "_SLACK = 2.0 ** -44", "_SLACK = 0.0",
           ("tests/test_violation_search.py",)),
    Mutant("scale-back-off-by-one", "src/chsh_steering/violation_search.py",
           "return np.ldexp(best, e)", "return np.ldexp(best, e + 1)",
           ("tests/test_violation_search.py",)),
    Mutant("scan-unscaled", "src/chsh_steering/violation_search.py",
           "e = math.frexp(max(np.abs(x).max(), np.abs(y).max()))[1]", "e = 0",
           ("tests/test_violation_search.py",)),
    Mutant("csv-zero-sign-merged", "src/chsh_steering/cli.py",
           "if 0.0 in text:", "if False:",
           ("tests/test_cli.py",)),
    Mutant("pricer-bracket-unwrapped", "src/chsh_steering/lhs_oracle.py",
           "if low + 1 < grid_n else (0, low)", "if low + 1 <= grid_n else (0, low)",
           ("tests/test_lhs_oracle.py",)),
    Mutant("lex-tie-reversed", "src/chsh_steering/simplex.py",
           "< [t / column[row] for t in tableau[row][:m]]",
           "> [t / column[row] for t in tableau[row][:m]]",
           ("tests/test_simplex.py",)),
    Mutant("decompose-remainder-unclamped", "src/chsh_steering/lhs_oracle.py",
           "half = 0.5 * max(1.0 - r1 - r2, 0.0)", "half = 0.5 * (1.0 - r1 - r2)",
           ("tests/test_lhs_oracle.py",)),
    Mutant("pivot-entry-threshold-zero", "src/chsh_steering/simplex.py",
           "eps = PIVOT_EPS", "eps = 0.0",
           ("tests/test_simplex.py",)),
    Mutant("inner-polygon-4-directions", "src/chsh_steering/violation_search.py",
           "_DIRECTIONS = 16", "_DIRECTIONS = 4",
           ("tests/test_violation_search.py",)),
    Mutant("hull-chain-keeps-collinear", "src/chsh_steering/violation_search.py",
           "(ys[k] - ys[i]) > (ys[j] - ys[i])", "(ys[k] - ys[i]) >= (ys[j] - ys[i])",
           ("tests/test_violation_search.py",)),
    Mutant("convex-stop-artificial-unchecked", "src/chsh_steering/simplex.py",
           "if not least < 0.0:", "if True:",
           ("tests/test_simplex.py",)),
    Mutant("convex-stop-at-tol", "src/chsh_steering/simplex.py",
           "limit = m * tol", "limit = tol",
           ("tests/test_simplex.py",)),
    Mutant("convex-stop-unpadded", "src/chsh_steering/simplex.py",
           "_STOP_PAD = 2.0 ** -40", "_STOP_PAD = 0.0",
           ("tests/test_simplex.py",)),
    Mutant("convex-column-unchecked", "src/chsh_steering/simplex.py",
           "if a[-1] != 1.0:", "if False:",
           ("tests/test_simplex.py",)),
    Mutant("convex-rhs-unchecked", "src/chsh_steering/simplex.py",
           "if convex and b[-1] != 1.0:", "if False:",
           ("tests/test_simplex.py",)),
    Mutant("classify-band-narrowed-member-side", "src/chsh_steering/lhs_oracle.py",
           "if abs(f - 1.0) <= band:", "if -0.99 * band <= f - 1.0 <= band:",
           ("tests/test_lhs_oracle.py",)),
    Mutant("lockstep-tie-fallback-skipped", "src/chsh_steering/simplex.py",
           "for k in np.nonzero(enter & (ties > 1))[0].tolist():", "for k in []:",
           ("tests/test_simplex.py", "tests/test_lhs_oracle.py")),
    Mutant("lockstep-lex-tie-reversed", "src/chsh_steering/simplex.py",
           "< [t / entries[r] for t in inverse[r]]", "> [t / entries[r] for t in inverse[r]]",
           ("tests/test_simplex.py",)),
    Mutant("lockstep-finished-system-kept", "src/chsh_steering/simplex.py",
           "keep = np.nonzero(enter)[0]", "keep = np.arange(enter.size)",
           ("tests/test_simplex.py", "tests/test_lhs_oracle.py")),
    Mutant("lockstep-stop-artificial-unchecked", "src/chsh_steering/simplex.py",
           "((least < 0.0) | ~(gap > _STOP_PAD * scale))", "~(gap > _STOP_PAD * scale)",
           ("tests/test_simplex.py",)),
    Mutant("lockstep-stop-unpadded", "src/chsh_steering/simplex.py",
           "~(gap > _STOP_PAD * scale)", "~(gap > 0.0 * scale)",
           ("tests/test_simplex.py",)),
    Mutant("lockstep-stop-at-tol", "src/chsh_steering/simplex.py",
           "eps, limit = PIVOT_EPS, m * tol", "eps, limit = PIVOT_EPS, tol",
           ("tests/test_simplex.py",)),
    Mutant("lockstep-entry-threshold-zero", "src/chsh_steering/simplex.py",
           "eps, limit = PIVOT_EPS, m * tol", "eps, limit = 0.0, m * tol",
           ("tests/test_simplex.py", "tests/test_lhs_oracle.py")),
    Mutant("lockstep-unbounded-over-every-system", "src/chsh_steering/simplex.py",
           "np.count_nonzero(enter & (ties == 0))", "np.count_nonzero(ties == 0)",
           ("tests/test_simplex.py",)),
    Mutant("lockstep-convex-column-unchecked", "src/chsh_steering/simplex.py",
           "wrong = real & (a[-1] != 1.0)", "wrong = real & False",
           ("tests/test_simplex.py",)),
    Mutant("lockstep-rhs-unchecked", "src/chsh_steering/simplex.py",
           "if not (B[:, -1] == 1.0).all():", "if False:",
           ("tests/test_simplex.py",)),
    Mutant("lockstep-nan-reduced-accepted", "src/chsh_steering/simplex.py",
           "if np.count_nonzero(~np.isfinite(reduced)):", "if False:",
           ("tests/test_simplex.py", "tests/test_lhs_oracle.py")),
    Mutant("lockstep-finiteness-unchecked", "src/chsh_steering/simplex.py",
           "if np.count_nonzero(~np.isfinite(tableau)):", "if False:",
           ("tests/test_simplex.py",)),
    Mutant("lockstep-threshold-off-by-one", "src/chsh_steering/lhs_oracle.py",
           "if len(points) <= LOCKSTEP_ABOVE:", "if len(points) < LOCKSTEP_ABOVE:",
           ("tests/test_lhs_oracle.py",)),
    Mutant("lockstep-one-chunk", "src/chsh_steering/lhs_oracle.py",
           "for start in range(0, len(points), LOCKSTEP_CHUNK):\n"
           "            chunk = points[start:start + LOCKSTEP_CHUNK]",
           "for start in (0,):\n            chunk = points",
           ("tests/test_lhs_oracle.py",)),
    Mutant("bracket-numpy-arctan2", "src/chsh_steering/lhs_oracle.py",
           "t = np.array(list(map(math.atan2, y.ravel().tolist(),\n"
           "                              x.ravel().tolist()))).reshape(2, n) * units",
           "t = np.arctan2(y, x) * units",
           ("tests/test_lhs_oracle.py",)),
    Mutant("bracket-flat-family-unpinned", "src/chsh_steering/lhs_oracle.py",
           "        low *= np.logical_or(x, y)", "        low *= True",
           ("tests/test_lhs_oracle.py",)),
    Mutant("check-entries-negated", "src/chsh_steering/qubit_core.py",
           "if not np.abs(op).max() <= 1.0 + OPERATOR_TOL:",
           "if np.abs(op).max() > 1.0 + OPERATOR_TOL:",
           ("tests/test_qubit_core.py", "tests/test_cli.py"),
           equivalent="the two differ only on NaN, and the finiteness check before"
                      " it has already rejected every NaN entry; the modulus of a"
                      " finite complex entry is never NaN"),
)


def tests_fail(tests, mutant: Mutant | None = None) -> bool:
    """Whether ``tests`` fail on a copy of the tree, carrying ``mutant`` if
    one is given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        if mutant is not None:
            target = tree / mutant.file
            target.write_text(target.read_text().replace(mutant.fragment,
                                                         mutant.replacement))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return result.returncode != 0


def main(names) -> int:
    chosen = [m for m in CATALOGUE if not names or m.name in names]
    unknown = set(names) - {m.name for m in CATALOGUE}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    # A test that fails without any mutant would count every mutant killed.
    control = sorted({t for m in chosen if not m.equivalent for t in m.tests})
    if control and tests_fail(control):
        print(f"the unmutated tree fails {' '.join(control)}; nothing to measure")
        return 1
    killed = total = 0
    ok = True
    for mutant in chosen:
        count = mutant.occurrences()
        if count != 1:
            outcome = f"STALE: the fragment occurs {count} times in {mutant.file}"
            ok = False
        elif mutant.equivalent:
            outcome = f"EQUIVALENT: {mutant.equivalent}"
        else:
            total += 1
            dead = tests_fail(mutant.tests, mutant)
            killed += dead
            ok &= dead
            outcome = "KILLED" if dead else "SURVIVED"
        print(f"{mutant.name}: {outcome}", flush=True)
    print(f"killed {killed}/{total}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
