"""Recorded mutants of the program, each checked to fail named tests.

Each row of ``MUTANTS`` names a file under ``src/obstruct``, an exact text
that must occur in it exactly once (so a row breaks loudly when the code
moves), its replacement, and the fastest tests that must fail on the mutant.
For each row the script copies ``src/`` to a temporary directory, checks that
the unmutated copy passes those tests, applies the mutant and checks that each
of them fails.  Stdlib only; pytest does not collect this file.

    python3 tests/mutants.py            # every row
    python3 tests/mutants.py NAME ...   # only the rows with these names

Every pytest run has a time limit, so a mutant that makes a kill test slow
cannot hang the script: a mutated run past its limit counts as killed, and an
unmutated one fails its row.

Exits 1 if a row's text is missing or repeated, its tests fail or time out
unmutated, or one of them passes on the mutant.
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# Time limits of one pytest run, in seconds: UNMUTATED_LIMIT for the tests on
# the unmutated copy, and max(MUTATED_LIMIT, SLOWDOWN x that run's time) for
# the same tests on the mutant.
UNMUTATED_LIMIT = 600
MUTATED_LIMIT = 60
SLOWDOWN = 10


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/obstruct
    old: str
    new: str
    kills: tuple[str, ...]  # pytest node ids, each of which must fail


NT = "numtheory.py"
LA = "lattice.py"
T_NT = "tests/test_numtheory.py::"
T_MF = "tests/test_manifolds.py::"
T_LA = "tests/test_lattice.py::"
T_GO = "tests/test_goeritz.py::"
T_PK = "tests/test_package.py::"
T_RC = "tests/test_records.py::"

MUTANTS = (
    # Tonelli-Shanks and Euler's criterion
    Mutant("generator-search-from-3", NT,
           "        z = 2\n", "        z = 3\n",
           (T_NT + "test_square_root_mod_witnesses_locked",)),
    Mutant("euler-criterion-exponent-2^s", NT,
           "pow(t, 1 << (s - 1), p) != 1", "pow(t, 1 << s, p) != 1",
           (T_NT + "test_square_root_mod_witnesses_locked",)),
    # the Jacobi symbol and its exit
    Mutant("jacobi-without-reciprocity-flip", NT,
           "        if a % 4 == 3 and m % 4 == 3:\n            t = -t\n", "",
           (T_NT + "test_square_root_mod_witnesses_locked",
            T_NT + "test_jacobi_is_product_of_legendre")),
    Mutant("jacobi-without-2-flip", NT,
           "        if v % 2 and m % 8 in (3, 5):\n            t = -t\n", "",
           (T_NT + "test_square_root_mod_witnesses_locked",
            T_NT + "test_jacobi_is_product_of_legendre")),
    Mutant("jacobi-exit-on-n-not-its-odd-part", NT,
           "None if _jacobi(a, odd) == -1", "None if _jacobi(a, n) == -1",
           (T_NT + "test_square_root_mod_witnesses_locked",)),
    # the shared walk of n's primes
    Mutant("walk-closed-one-residue-early", NT,
           "        if not live:\n            break\n",
           "        if len(live) <= 1:\n            break\n",
           (T_NT + "test_square_root_mod_witnesses_locked",)),
    Mutant("walk-never-closed-early", NT,
           "        if not live:\n            break\n", "",
           (T_MF + "test_verdict_walks_n_once_and_splits_only_while_a_sign_lives",)),
    # each prime once from _split: same output without the gcd, but a prime
    # that Pollard rho returns twice is proved twice; without the leftover
    # small prime g on the stack, n = 75 yields (25, 1)
    Mutant("split-cofactor-without-gcd-with-rest", NT,
           "c = gcd(stack.pop(), n)", "c = stack.pop()",
           (T_NT + "test_split_yields_each_prime_once",)),
    Mutant("split-exponent-counted-with-if", NT,
           "            while n % c == 0:\n", "            if n % c == 0:\n",
           (T_NT + "test_square_root_mod_large_n_digest",)),
    Mutant("split-without-leftover-small-prime", NT,
           "stack = [n, g, *reversed(small)]", "stack = [n, *reversed(small)]",
           (T_NT + "test_split_yields_each_prime_once",
            T_NT + "test_factor_matches_trial_division")),
    # the density sieves: Sprime's primes to isqrt(limit + 1) and its 2-adic
    # progressions, S's large primes stored by index and its clears chunked
    Mutant("sprime-sieve-to-isqrt-limit", NT,
           "_primes_upto(isqrt(limit + 1), 3, 4)", "_primes_upto(isqrt(limit), 3, 4)",
           (T_NT + "test_density_matches_slow_sieves[Sprime]",)),
    Mutant("sprime-odd-part-skips-odd-m", NT,
           "for a in range(((limit + 1) // 3).bit_length()):",
           "for a in range(1, ((limit + 1) // 3).bit_length()):",
           (T_NT + "test_density_matches_slow_sieves[Sprime]",)),
    Mutant("s-large-prime-drops-second-member", NT,
           "            if r + p <= limit:\n                keep[r + p] = 0\n", "",
           (T_NT + "test_density_examples",
            T_NT + "test_density_matches_slow_sieves[Sk3]")),
    Mutant("s-unchunked-clear-past-the-segment", NT,
           "elif limit < p * _SEGMENT:", "elif True:",
           (T_NT + "test_s_density_clears_from_one_segment",)),
    # factoring: the prime cofactor bound, the Miller-Rabin bases
    Mutant("cofactor-below-4096^3-trusted", NT,
           "if c < _TRIAL_SQUARE or", "if c < _TRIAL_LIMIT**3 or",
           (T_NT + "test_square_root_mod_large_n_digest",)),
    Mutant("six-bases-below-psi_7", NT,
           "(341550071728321, 7)", "(341550071728321, 6)",
           (T_NT + "test_is_prime_bounds_are_psi_k",)),
    Mutant("eleven-bases-past-psi_9", NT,
           "if n < bound), len(_MR_BASES))", "if n < bound), len(_MR_BASES) - 1)",
           (T_NT + "test_is_prime_bounds_are_psi_k",)),
    # lattice: the norm-4 closed form, the enumeration's entry bounds and
    # block-count cut, and the norm bound before the Gram facts
    Mutant("norm4-closed-form-without-q22", LA,
           "2 * (q13 + q22)", "2 * q13",
           (T_LA + "test_obstruction_results",
            T_LA + "test_complement_norm4_count_against_brute_force")),
    Mutant("enumeration-stops-at-a=S+v+1", LA,
           "                if a > ahi:\n", "                if a >= ahi:\n",
           (T_LA + "test_enumeration_examples",
            T_LA + "test_enumeration_matches_brute_force")),
    Mutant("enumeration-entry-bound-slots+2", LA,
           "isqrt(rem // (slots + 1))", "isqrt(rem // (slots + 2))",
           (T_LA + "test_enumeration_matches_brute_force",)),
    Mutant("enumeration-doubling-bound-strict", LA,
           "rem - lo * lo > (prefix_sum + lo + 1) ** 2 * doubling",
           "rem - lo * lo >= (prefix_sum + lo + 1) ** 2 * doubling",
           (T_LA + "test_max_norm_bound_attained",)),
    Mutant("enumeration-block-count-break-for-every-v", LA,
           "                if v > prev:\n                    break",
           "                if True:\n                    break",
           (T_LA + "test_enumeration_digest",)),
    # the embedding search: its canonical-form rows, its pairing cut, its
    # lists of short vectors at index 1, and the zero sigma, which has no index
    Mutant("search-tied-row-ignores-filled-vector", LA,
           "x[j - 1] == x[j]", "True",
           (T_LA + "test_gd_embedding_found_and_verifies",)),
    Mutant("search-free-row-ignores-filled-vector", LA,
           "f and c == 0", "f",
           (T_LA + "test_pruned_search_equals_naive_search",
            T_LA + "test_complement_forms_always_embed")),
    Mutant("search-pairing-cut-strict", LA,
           "need * need > sufv[s][j + 1] * nrem", "need * need >= sufv[s][j + 1] * nrem",
           (T_LA + "test_gd_embedding_found_and_verifies",)),
    # a list filter that is dropped leaves the first embedding as it was,
    # but the search places more vectors, or completes wrong ones
    Mutant("search-list-without-pairing-filter", LA,
           "                cands = [x for x in cands if sum(map(mul, x, w)) == o]\n",
           "                pass\n",
           (T_LA + "test_every_search_leaf_verifies",)),
    Mutant("search-list-without-tied-row-filter", LA,
           " or any(map(gt, compress(x[1:], t1), compress(x, t1)))", "",
           (T_LA + "test_lists_place_what_the_coordinate_search_places",)),
    Mutant("search-list-without-free-row-filter", LA,
           "-1 in compress(x, free) or ", "",
           (T_LA + "test_lists_place_what_the_coordinate_search_places",)),
    Mutant("search-lists-at-every-index", LA,
           "if diag <= 3 and index1:", "if diag <= 3:",
           (T_LA + "test_short_vector_lists_only_at_index_1_and_norms_to_3",)),
    Mutant("search-lists-of-norm-4", LA,
           "if diag <= 3 and index1:", "if diag <= 4 and index1:",
           (T_LA + "test_short_vector_lists_only_at_index_1_and_norms_to_3",)),
    Mutant("zero-sigma-reaches-the-index-test", LA,
           "    if sigma.norm == 0:\n"
           "        return None  # the zero vector spans nothing; full rank is impossible\n",
           "",
           (T_LA + "test_zero_sigma_embeds_nothing",)),
    Mutant("norm-bound-obstructs-at-the-bound", LA,
           "if p > changemaker_max_norm(gram.rank + 1):",
           "if p >= changemaker_max_norm(gram.rank + 1):",
           (T_LA + "test_max_norm_bound_attained",)),
    # the linking form at index 1: the sign of b(x, x) = -c / p, and an
    # acyclic discriminant group
    Mutant("linking-form-without-sign", LA,
           "_square_roots_mod((-m,), p)", "_square_roots_mod((m,), p)",
           (T_LA + "test_linking_form_is_the_residue_test",
            T_LA + "test_every_witness_passes_the_linking_form")),
    Mutant("linking-form-cofactor-without-sign", LA,
           "_sqrt_mod_prime_power(-c, q, e)", "_sqrt_mod_prime_power(c, q, e)",
           (T_LA + "test_linking_form_is_the_residue_test",)),
    Mutant("linking-form-passes-with-no-cofactor-prime", LA,
           "if c is None or _sqrt_mod_prime_power", "if c is not None and _sqrt_mod_prime_power",
           (T_LA + "test_linking_form_decides_hard_forms",)),
    # a GramMatrix is checked where it is built, and only there; it keeps
    # that elimination, which no record method compares, hashes or prints
    Mutant("gram-accepts-indefinite", LA,
           "        if rows is None:\n"
           "            raise ValueError(\"Gram matrix must be negative definite\")\n",
           "",
           (T_LA + "test_negative_definite", T_GO + "test_graph_validation")),
    Mutant("determinant-reads-the-first-pivot", LA,
           "(self._rows[-1][-1] if self._rows else 1)", "(self._rows[0][0] if self._rows else 1)",
           (T_LA + "test_determinant_against_permutation_expansion",)),
    Mutant("record-private-slot-is-a-field", "_record.py",
           "for name in cls.__slots__ if not name.startswith(\"_\"))",
           "for name in cls.__slots__)",
           (T_RC + "test_private_slot_is_not_a_field",
            T_RC + "test_record_repr_names_fields[GramMatrix]")),
    Mutant("gram-without-rank-cap", LA,
           "        _check_length(n + 1)\n", "",
           (T_LA + "test_obstruction_length_cap",)),
    # goeritz, manifolds, cli
    Mutant("goeritz-off-diagonal-without-weight", "goeritz.py",
           "            rows[u - 1][v - 1] += crossings\n"
           "            rows[v - 1][u - 1] += crossings\n",
           "            rows[u - 1][v - 1] += 1\n            rows[v - 1][u - 1] += 1\n",
           (T_GO + "test_l35_white_graph_matrix", T_GO + "test_goeritz_forms_digest")),
    Mutant("mirror-without-unknot-case", "manifolds.py",
           "        if self.is_trivial:\n            return self\n        knot = object.__new__",
           "        knot = object.__new__",
           (T_MF + "test_mirror_matches_the_constructor",)),
    Mutant("cli-imports-logging-at-start-up", "cli.py",
           "from . import lattice, manifolds, numtheory, repvar\n",
           "import logging\nfrom . import lattice, manifolds, numtheory, repvar\n",
           ("tests/test_cli.py::test_import_cli_leaves_logging_out",)),
    # the package loads each layer on first use
    Mutant("package-imports-a-layer-at-import", "__init__.py",
           "import importlib\n", "import importlib\n\nfrom . import manifolds\n",
           (T_PK + "test_a_name_loads_only_its_layer[import-obstruct]",)),
    Mutant("package-unknown-name-is-None", "__init__.py",
           "        raise AttributeError(", "        return None\n        raise AttributeError(",
           (T_PK + "test_unknown_name_raises_attribute_error",)),
    # Equivalent mutants, which no test can kill:
    # - `p * p >= g` for `p * p > g` in _split: g is squarefree, so never p^2;
    # - `_jacobi(a, odd) != 1` for `== -1` in _square_roots_mod: the residues
    #   are units, whose Jacobi symbol is never 0;
    # - the package's __getattr__ without `globals()[name] = value`: the
    #   binding only spares later reads a call.
)


def failed_ids(src: Path, kills: tuple[str, ...], limit: float) -> tuple[int | None, set[str]]:
    """Run the node ids against the sources in src; the exit code and the ids
    that failed or errored, or None and no ids if the run went past the time
    limit, in seconds, and was killed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *kills],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # its own process group, killed whole on a timeout
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, set()
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE))
    return proc.returncode, failed


def check(m: Mutant, scratch: Path) -> tuple[bool, str]:
    """Whether the mutant is killed, and how, or why not."""
    src = scratch / m.name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "obstruct" / m.file
    text = path.read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        return False, f"old text occurs {text.count(m.old)} times in {m.file}"
    t0 = time.perf_counter()
    code, failed = failed_ids(src, m.kills, UNMUTATED_LIMIT)
    if code is None:
        return False, f"unmutated copy runs past the {UNMUTATED_LIMIT} s limit"
    if code != 0:
        return False, f"unmutated copy fails (exit {code}): {sorted(failed)}"
    limit = max(MUTATED_LIMIT, SLOWDOWN * (time.perf_counter() - t0))
    path.write_text(text.replace(m.old, m.new), encoding="utf-8")
    code, failed = failed_ids(src, m.kills, limit)
    if code is None:
        return True, f"killed: timed out after {limit:.0f} s"
    survived = [k for k in m.kills if k not in failed]
    return (False, f"survives {survived} (exit {code})") if survived else (True, "killed")


def main(names: list[str]) -> int:
    rows = [m for m in MUTANTS if not names or m.name in names]
    if names and len(rows) != len(set(names)):
        print(f"unknown mutant names: {sorted(set(names) - {m.name for m in MUTANTS})}")
        return 1
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for m in rows:
            t0 = time.perf_counter()
            killed, why = check(m, Path(tmp))
            bad += not killed
            status = why if killed else f"FAIL: {why}"
            print(f"{m.name:44} {time.perf_counter() - t0:5.1f} s  {status}", flush=True)
    print(f"{len(rows) - bad} of {len(rows)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
