"""Acceptance gate: every criterion at its stated tolerance, one line each.

All comparisons are exact; run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion PASS lines.  The censuses enumerate, the closed
forms only ever sit on the expected side.
"""

import ast
import random
import re
import time
from itertools import permutations, product
from math import factorial
from pathlib import Path

import pytest

import treepark
from treepark import (
    IDENTITY_NAMES,
    catalan_number,
    census,
    check_identities,
    is_parking_function,
    is_prime,
    park,
    path_image_suite,
    prime_distribution_count,
    roundtrip_suite,
    theorem53_suite,
    used_edges,
)
from treepark.census import CENSUS_COLUMNS
from treepark.series import INFORMATIONAL_IDENTITIES
from treepark.trees import enumerate_rooted_trees, validate_rooted_tree

EXPECTED_PARKING = [1, 6, 132, 6384, 544320]
EXPECTED_PRIME = [1, 2, 24, 720, 40320]
EXPECTED_PRIME_DISTRIBUTION = [1, 2, 12, 132, 2160]
EXPECTED_STANDARD_PRIME = [1, 1, 4, 30, 336]


@pytest.fixture(scope="module")
def census_reports():
    start = time.perf_counter()
    reports = {n: census(n) for n in range(1, 6)}
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"census n=1..5 took {elapsed:.1f}s"
    return reports


def _column(reports, name):
    return [reports[n].columns[CENSUS_COLUMNS.index(name)] for n in range(1, 6)]


def _announce(tag, ok):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_01_parking_census(census_reports):
    cells = _column(census_reports, "parking")
    ok = [c.counted for c in cells] == EXPECTED_PARKING and all(c.passed for c in cells)
    _announce("01 parking census n=1..5", ok)


def test_02_prime_census(census_reports):
    cells = _column(census_reports, "prime")
    ok = [c.counted for c in cells] == EXPECTED_PRIME and all(c.passed for c in cells)
    _announce("02 prime census n=1..5", ok)


def test_03_prime_distribution_census(census_reports):
    cells = _column(census_reports, "prime_distribution")
    total_elapsed = sum(census_reports[n].elapsed for n in range(1, 6))
    ok = (
        [c.counted for c in cells] == EXPECTED_PRIME_DISTRIBUTION
        and [prime_distribution_count(n) for n in range(1, 6)] == EXPECTED_PRIME_DISTRIBUTION
        and all(c.passed for c in cells)
        and total_elapsed < 10.0  # the whole census fits the distribution budget
    )
    _announce("03 prime distribution census n=1..5", ok)


def test_04_distribution_census_matches_ode(census_reports):
    cells = _column(census_reports, "distribution")
    # expected side is computed from the differential equation; spot checks first
    ok = (
        cells[0].expected == 1
        and cells[1].expected == 4
        and all(c.passed for c in cells)
    )
    _announce("04 distribution census vs ODE n=1..5", ok)


def test_05_marked_censuses(census_reports):
    marked_prime = _column(census_reports, "marked_prime")
    marked_distribution = _column(census_reports, "marked_distribution")
    ok = (
        marked_prime[1].counted == 2
        and all(c.passed for c in marked_prime)
        and all(c.passed for c in marked_distribution)
    )
    _announce("05 marked censuses n=2..5", ok)


def test_06_standard_prime_census(census_reports):
    cells = _column(census_reports, "standard_prime")
    ok = [c.counted for c in cells] == EXPECTED_STANDARD_PRIME and all(
        c.passed for c in cells
    )
    _announce("06 standard-pair census n=1..5", ok)


def test_07_bijection_roundtrips():
    start = time.perf_counter()
    reports = [roundtrip_suite(n) for n in range(1, 5)]
    elapsed = time.perf_counter() - start
    ok = (
        all(r.passed for r in reports)
        and reports[-1].cases == 1440  # 720 prime pairs + 720 image pairs
        and elapsed < 5.0
    )
    _announce("07 roundtrips are identities at n=4", ok)


def test_08_series_identities():
    start = time.perf_counter()
    results = check_identities(12)
    elapsed = time.perf_counter() - start
    asserted = [r for r in results if r.name not in INFORMATIONAL_IDENTITIES]
    ok = (
        len(asserted) == len(IDENTITY_NAMES) - len(INFORMATIONAL_IDENTITIES)
        and all(r.first_bad is None for r in asserted)
        and elapsed < 1.0
    )
    _announce("08 series identities exact to order 12", ok)


def test_09_statistic_map_agreement():
    reports = [theorem53_suite(n) for n in range(1, 7)]
    ok = all(r.passed for r in reports) and [r.cases for r in reports] == [
        catalan_number(n) for n in range(1, 7)
    ]
    _announce("09 statistic map vs decoded paths n<=6", ok)


def test_10_path_image_bijection():
    reports = [path_image_suite(n) for n in range(1, 6)]
    ok = all(r.passed for r in reports) and reports[-1].cases == factorial(5)
    _announce("10 growth sequences map onto labeled paths n<=5", ok)


def _property_checks(tree, seq, orderings):
    """The four invariants on one (tree, sequence) instance."""
    outcome = park(tree, seq)
    ok = is_parking_function(tree, seq) == outcome.all_parked
    prime = is_prime(tree, seq)
    if outcome.all_parked:
        edges = set(used_edges(tree, seq))
        ok = ok and prime == (len(edges) == tree.n - 1)
        if prime:
            ok = ok and outcome.spots[-1] == tree.root
        for sigma in orderings:
            reordered = tuple(seq[i] for i in sigma)
            ok = ok and is_parking_function(tree, reordered)
            ok = ok and set(used_edges(tree, reordered)) == edges
    else:
        ok = ok and not prime
        for sigma in orderings:
            reordered = tuple(seq[i] for i in sigma)
            ok = ok and not is_parking_function(tree, reordered)
    return ok


def test_11_property_suites():
    ok = True
    for n in range(1, 5):
        orderings = list(permutations(range(n)))
        for tree in enumerate_rooted_trees(n):
            for seq in product(range(1, n + 1), repeat=n):
                ok = ok and _property_checks(tree, seq, orderings)

    rng = random.Random(0x5EED)
    for _ in range(10_000):
        n = rng.randint(6, 8)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        parents = [0] * n
        for i in range(1, n):
            parents[labels[i] - 1] = labels[rng.randrange(i)]
        tree = validate_rooted_tree(parents)
        seq = tuple(rng.randint(1, n) for _ in range(n))
        sigma = list(range(n))
        rng.shuffle(sigma)
        ok = ok and _property_checks(tree, seq, [tuple(sigma)])
    _announce("11 invariant properties exhaustive n<=4 plus 10^4 random n=6..8", ok)


def test_no_assert_in_the_package():
    """python -O strips asserts, so no invariant may rest on one."""
    root = Path(treepark.__file__).resolve().parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_parses_at_the_oldest_supported_python():
    """Every module parses with the grammar of the oldest Python that
    pyproject.toml admits, whichever Python runs the tests."""
    root = Path(treepark.__file__).resolve().parent
    pyproject = (root.parents[1] / "pyproject.toml").read_text()
    oldest = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    assert oldest == (3, 10)
    for path in sorted(root.rglob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=oldest)


def test_readme_library_block():
    """The README's Library block runs in a fresh namespace, and each
    expression gives the value its comment states."""
    readme = (Path(treepark.__file__).resolve().parents[2] / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    stated = []  # (value, comment) of each expression statement
    for node in ast.parse(block).body:
        code = compile(ast.Module([node], []), "README.md", "exec")
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            stated.append((eval(code, namespace), lines[node.lineno - 1].partition("#")[2].strip()))
        else:
            exec(code, namespace)
    tp = namespace["tp"]
    spots, edges, pair, prime, identities, passed = [value for value, _ in stated]
    comments = [comment for _, comment in stated]
    assert spots == (2, 3, 1, 4, 5) and comments[0].startswith(repr(spots))
    assert edges == ((2, 3), (3, 5)) and comments[1].startswith(repr(edges))
    assert pair == (tp.parse_rooted_tree("2 0"), (1, 1)) and "round-trips" in comments[2]
    assert prime == 3628800 and comments[3].startswith("3628800")
    held = [r.first_bad for r in identities if r.expected_zero]  # one identity is informational
    assert held == [None] * 15
    assert "residuals exactly zero" in comments[4]
    assert passed is True
