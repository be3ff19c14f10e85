"""A table of deliberate faults: every oracle bites.

Each row patches one private kernel with a small wrong variant and passes
only when the oracle that should catch it reports the fault: a comparison
that fails, a suite or census that fails, or a named ``TreeParkError``.
A crash of the test is not a report.  ``InvariantError`` checks inside the
package also run under ``python -O``, which strips asserts.  Run the table
alone with ``pytest -m faults``.
"""

import importlib
import os
import random
import subprocess
import sys
from bisect import bisect_left
from itertools import permutations
from operator import mul
from pathlib import Path

import pytest

import treepark
import treepark.bijections
import treepark.series
import treepark.trees
from reference_census import simulated_standard_count
from reference_decode import piecewise_decode
from reference_encode import fenwick_encode
from reference_series import ReferenceSeries
from treepark import (
    InvariantError,
    Series,
    TreeParkError,
    census,
    decode_prime,
    decompose,
    encode_prime,
    enumerate_labeled_plane_trees,
    enumerate_plane_trees,
    format_plane_tree,
    format_rooted_tree,
    parse_plane_tree,
    path_preimage_seq,
    roundtrip_suite,
    theorem53_suite,
)
from treepark.bijections import _BLOCK, _checked
from treepark.census import _iter_primes
from treepark.trees import _carried_tree, _flatten, _shape_parents
from test_bijections import FIG_SP, caterpillar_tree, random_plane_tree, star_tree, with_spots, without_child
from test_trees import reference_plane_trees

pytestmark = pytest.mark.faults

census_module = importlib.import_module("treepark.census")  # the package exports a census function


def first_differing_size(sizes):
    """The first n whose plane shapes come in another order than the
    reference's, or None."""
    return next((n for n in sizes if list(enumerate_plane_trees(n)) != list(reference_plane_trees(n))), None)


def reports(check) -> bool:
    """Whether ``check()`` reports a fault: returns False or raises a named error."""
    try:
        return not check()
    except TreeParkError:
        return True


# ---------------------------------------------------------------------------
# Plane shapes: the order reference
# ---------------------------------------------------------------------------


def test_compositions_out_of_order(monkeypatch):
    real = treepark.trees._compositions

    def swapped(total):
        found = list(real(total))
        found[:2] = found[1::-1]
        return iter(found)

    monkeypatch.setattr(treepark.trees, "_compositions", swapped)
    assert first_differing_size(range(1, 8)) == 3


def test_forests_with_tails_before_heads(monkeypatch):
    def tails_first(sizes):
        if not sizes:
            yield ()
            return
        for tail in tails_first(sizes[1:]):
            for head in treepark.trees._shapes(sizes[0]):
                yield (head, *tail)

    monkeypatch.setattr(treepark.trees, "_forests", tails_first)
    assert first_differing_size(range(1, 8)) == 7
    # the same shapes, so only the order reference sees the fault
    assert sorted(enumerate_plane_trees(7)) == sorted(reference_plane_trees(7))


# ---------------------------------------------------------------------------
# The census: closed forms on the expected side
# ---------------------------------------------------------------------------


def column(report, name):
    return next((c.counted, c.expected) for c in report.columns if c.name == name)


def test_sibling_pairs_drop_the_last_pair(monkeypatch):
    real = treepark.bijections._sibling_pairs
    dropping = lambda parents: real(parents)[:-1]  # noqa: E731
    for module in (treepark.bijections, census_module):  # the census binds the sweep by name
        monkeypatch.setattr(module, "_sibling_pairs", dropping)
    report = census(4)
    assert not report.passed
    assert column(report, "standard_prime") == (33, 30)


def test_parking_vectors_with_the_prime_bound_lowered(monkeypatch):
    real = census_module._parking_vectors
    monkeypatch.setattr(census_module, "_parking_vectors", lambda up, least: real(up, max(least - 1, 0)))
    report = census(3)
    assert not report.passed
    counted, expected = column(report, "prime")
    assert counted == column(report, "parking")[0] != expected


def test_prime_vectors_lose_their_last(monkeypatch):
    # The standard search enumerates the prime vectors; its reference picks
    # the prime sequences from all n^n, so it does not lose them too.
    real = census_module._parking_vectors
    monkeypatch.setattr(census_module, "_parking_vectors", lambda up, least: list(real(up, least))[:-1])
    differ = []
    for n in range(1, 6):
        for shape in enumerate_plane_trees(n):
            parents = _shape_parents(shape)
            vectors = census_module._parking_vectors(parents, 1)
            if sum(census_module._standard_orderings(parents, v) for v in vectors) != simulated_standard_count(shape):
                differ.append(shape)
    assert differ  # 9 of the 23 shapes


# ---------------------------------------------------------------------------
# The maps: the Fenwick encoder and the piece-by-piece decoder
# ---------------------------------------------------------------------------


def rank_in_block(self, x, drop=False):
    """``_Shrinking.rank`` without the blocks before x's own."""
    b = bisect_left(self.tops, x)
    block = self.blocks[b] if b < len(self.blocks) else []
    i = bisect_left(block, x)
    if i == len(block) or block[i] != x:
        return None
    if drop:
        del block[i]
    return i


def bitten_through(rank, pairs, monkeypatch):
    """For each pair, whether the encoder with ``_Shrinking.rank`` replaced by
    ``rank`` is reported against the Fenwick encoder, and whether it called
    the stand-in: only a list longer than a block is a ``_Shrinking``."""
    calls = []
    counted = lambda self, x, drop=False: calls.append(x) or rank(self, x, drop)  # noqa: E731
    monkeypatch.setattr(treepark.bijections._Shrinking, "rank", counted)
    found = []
    for sp in pairs:
        calls.clear()
        found.append((reports(lambda: encode_prime(sp) == fenwick_encode(*_checked(sp))), bool(calls)))
    return found


def test_shrinking_rank_drops_the_blocks_before_its_own(monkeypatch):
    rng = random.Random(_BLOCK + 1)
    pairs = [decode_prime(random_plane_tree(rng, _BLOCK + 1)) for _ in range(3)]
    bitten = bitten_through(rank_in_block, pairs, monkeypatch)
    assert bitten == [(True, True)] * 3, bitten


def test_shrinking_rank_drops_the_blocks_before_its_own_only_on_a_delete(monkeypatch):
    # At 4097 vertices the root's lists leave only label n in a second block,
    # so this variant needs four blocks; the shuffled path does not catch it.
    real = treepark.bijections._Shrinking.rank
    n = 3 * _BLOCK + 1
    pairs = [decode_prime(make(random.Random(n), n)) for make in (star_tree, caterpillar_tree, random_plane_tree)]
    bitten = bitten_through(lambda self, x, drop: (rank_in_block if drop else real)(self, x, drop), pairs, monkeypatch)
    assert bitten == [(True, True)] * 3, bitten


def test_shrinking_rank_one_too_high_breaks_the_growth_check(monkeypatch):
    real = treepark.bijections._Shrinking.rank
    high = lambda self, x, drop=False: real(self, x, drop) + 1  # noqa: E731
    monkeypatch.setattr(treepark.bijections._Shrinking, "rank", high)
    with pytest.raises(InvariantError, match="^a path preimage must be a growth sequence") as caught:
        path_preimage_seq((2, 1))
    assert caught.value.prefs == (1, 2, 3)


def test_merge_misplaces_the_entry_it_inserts_last(monkeypatch):
    def misplacing(parts):
        sizes = [len(labels) for labels, _ in parts]
        big = sizes.index(max(sizes))
        below, wants = parts[big]
        entries = [entry for j, part in enumerate(parts) if j != big for entry in zip(*part)]
        for k, (label, w) in enumerate(entries):
            i = bisect_left(below, label) + (k == len(entries) - 1)  # the last goes one place right
            below[i:i], wants[i:i] = (label,), (w,)
        return below, wants

    def agrees(plt):
        sp = decode_prime(plt)
        parents, prefs = piecewise_decode(*_flatten(plt))
        return (_checked(sp)[0], sp.prefs) == (parents, tuple(prefs))

    monkeypatch.setattr(treepark.bijections, "_merge", misplacing)
    bitten = sum(reports(lambda: agrees(plt)) for n in range(1, 6) for plt in enumerate_labeled_plane_trees(n))
    assert bitten > 0


def last_driver_at_the_root(decode):
    """``decode`` with the last driver's preference moved to the root's label."""

    def doctored(labels, kids):
        parents, prefs = decode(labels, kids)
        prefs[-1] = len(parents) - 1
        return parents, prefs

    return doctored


def test_decode_sends_the_last_driver_to_the_root(monkeypatch):
    # the pattern suite decodes its paths through the kernel, which checks the pair
    monkeypatch.setattr(treepark.bijections, "_decode", last_driver_at_the_root(treepark.bijections._decode))
    with pytest.raises(InvariantError) as caught:
        theorem53_suite(3)
    assert str(caught.value) == (
        "the decoded pair is a standard prime, but underlying pair is not prime"
        " (witness: parents (2, 3, 4, 0), prefs (1, 1, 1, 4))"
    )


def labels_swapped(decode):
    """``decode`` with post-order labels 1 and n - 1 traded in its pair: the
    same pair relabeled, so still prime, but no longer a post-order array."""

    def doctored(labels, kids):
        parents, prefs = decode(labels, kids)
        n = len(parents) - 1
        swap = {1: n - 1, n - 1: 1}
        traded = [0] * (n + 1)
        for v in range(1, n + 1):
            traded[swap.get(v, v)] = swap.get(parents[v], parents[v])
        return traded, [swap.get(q, q) for q in prefs]

    return doctored


def swapped_decodes_let_through() -> list:
    """The labeled plane trees with 3 <= n <= 6 whose decode, with two labels
    swapped, raises no ``InvariantError`` naming the swapped pair; written
    without ``assert`` or ``monkeypatch``, so that it runs under ``python -O``."""
    bij = treepark.bijections
    real = bij._decode
    doctored = labels_swapped(real)
    let_through = []
    bij._decode = doctored
    try:
        for n in range(3, 7):
            for plt in enumerate_labeled_plane_trees(n):
                parents, prefs = doctored(*_flatten(plt))
                try:
                    decode_prime(plt)
                except InvariantError as exc:
                    if (exc.tree.parents, exc.prefs) == (tuple(parents[1:]), tuple(prefs)):
                        continue
                let_through.append(plt)
    finally:
        bij._decode = real
    return let_through


def crossing_arcs(labels, kids):
    """A stand-in for ``_decode`` that returns, for any tree, a children-first
    array that is not a post-order, with preferences under which it is prime
    and keeps its one sibling order: vertex 1 hangs below 3 and vertex 2
    below 4, with 3 a child of 4."""
    return [0, 3, 4, 4, 5, 0], [1, 1, 1, 2, 2]


def test_decode_returns_crossing_arcs(monkeypatch):
    monkeypatch.setattr(treepark.bijections, "_decode", crossing_arcs)
    with pytest.raises(InvariantError) as caught:
        decode_prime(parse_plane_tree("*[1 3 4[2]]"))
    assert str(caught.value) == (
        "the decoded pair is a standard prime, but the last child of vertex 3 is not 2"
        " (witness: parents (3, 4, 4, 5, 0), prefs (1, 1, 1, 2, 2))"
    )


def test_decode_swaps_two_labels():
    # most swapped pairs keep every sibling order (4281 of the 5410), so the
    # standard-pair check must refuse an array that is not a post-order
    assert swapped_decodes_let_through() == []


# ---------------------------------------------------------------------------
# The backward relabeling: the round-trip suite
# ---------------------------------------------------------------------------


def test_destandardize_swaps_the_images_of_1_and_2(monkeypatch):
    # the backward relabeling composed with the transposition (1 2) moves
    # every prime pair on 3 vertices, so the round trip breaks at every
    # case, each named in enumeration order
    real = treepark.bijections._destandardize
    swapped = lambda inv, parents, prefs: real(tuple({1: 2, 2: 1}.get(x, x) for x in inv), parents, prefs)  # noqa: E731
    for name, module in list(sys.modules.items()):  # every module that binds the kernel
        if name.split(".")[0] == "treepark" and getattr(module, "_destandardize", None) is real:
            monkeypatch.setattr(module, "_destandardize", swapped)
    report = roundtrip_suite(3)
    assert report.cases == 48
    assert report.failures == tuple(
        f"forward roundtrip broke at tree={format_rooted_tree(tree)} seq={prefs}" for tree, prefs in _iter_primes(3)
    ) + tuple(
        f"backward roundtrip broke at sigma={word} ptree={format_plane_tree(plt)}"
        for word in permutations(range(1, 4))
        for plt in enumerate_labeled_plane_trees(3)
    )
    assert report.failures[:2] == (
        "forward roundtrip broke at tree=2 0 1 seq=(1, 3, 3)",
        "forward roundtrip broke at tree=2 0 1 seq=(3, 1, 3)",
    )
    assert report.failures[-1] == "backward roundtrip broke at sigma=(3, 2, 1) ptree=*[2[1]]"


# ---------------------------------------------------------------------------
# The series kernel: the Fraction reference
# ---------------------------------------------------------------------------


def test_product_loses_its_last_term(monkeypatch):
    real = Series.__mul__

    def short(self, other):
        if not isinstance(other, Series):
            return real(self, other)
        (a, da), (b, db) = treepark.series._lifted(self), treepark.series._lifted(other)
        n = min(len(a), len(b))
        return treepark.series._reduced([sum(map(mul, a[:k], b[k:0:-1])) for k in range(n)], da * db)

    rng = random.Random(17)
    operands = [[[rng.randint(-9, 9) for _ in range(order + 1)] for _ in range(2)] for order in range(6)]
    monkeypatch.setattr(Series, "__mul__", short)
    differ = [
        (Series(a) * Series(b)).coeffs != (ReferenceSeries(a) * ReferenceSeries(b)).coeffs for a, b in operands
    ]
    assert any(differ), differ


# ---------------------------------------------------------------------------
# The package's own InvariantError checks, also under python -O
# ---------------------------------------------------------------------------


def invariant_faults() -> list[str]:
    """The error each of the maps' ``InvariantError`` checks raises with one
    kernel doctored, as ``name: invariant``; written without ``assert`` or
    ``monkeypatch``, so that it runs under ``python -O``."""
    bij = treepark.bijections
    real_merge, real_rank, real_decode = bij._merge, bij._Shrinking.rank, bij._decode

    def swapped(parts):  # the first and the last preference trade places
        below, wants = real_merge(parts)
        wants[0], wants[-1] = wants[-1], wants[0]
        return below, wants

    rows = [  # (the kernel doctored, if any, as owner, name and stand-in; the call)
        ((bij, "_prime_outcome", with_spots((1,) * 5)), lambda: decompose(FIG_SP)),
        ((bij, "_prime_outcome", with_spots((2, 3, 1, 4, 5))), lambda: encode_prime(FIG_SP)),
        ((bij, "_image", without_child(5)), lambda: encode_prime(FIG_SP)),
        ((bij, "_merge", lambda parts: [found[:-1] for found in real_merge(parts)]),
         lambda: decode_prime(parse_plane_tree("*[1 3 4[2]]"))),
        # flat arrays that hang vertex 2 below both 0 and 1
        (None, lambda: decode_prime(_carried_tree((None, 1, 2), ((1, 2), (2,), ())))),
        ((bij, "_merge", swapped), lambda: decode_prime(parse_plane_tree("*[1 2[4 5[3]]]"))),
        ((bij._Shrinking, "rank", lambda self, x, drop=False: real_rank(self, x, drop) + 1),
         lambda: path_preimage_seq((2, 1))),
        ((bij, "_decode", last_driver_at_the_root(real_decode)), lambda: theorem53_suite(3)),
        ((bij, "_decode", crossing_arcs), lambda: decode_prime(parse_plane_tree("*[1 3 4[2]]"))),
    ]
    raised = []
    for patch, call in rows:
        if patch:
            owner, name, fake = patch
            real = getattr(owner, name)
            setattr(owner, name, fake)
        try:
            call()
            raised.append("nothing")
        except InvariantError as exc:
            raised.append(f"{type(exc).__name__}: {str(exc).split(' (witness')[0]}")
        finally:
            if patch:
                setattr(owner, name, real)
    return raised


def test_invariant_checks_raise_under_optimize():
    probe = (
        "from test_faults import invariant_faults, swapped_decodes_let_through\n"
        "print(*invariant_faults(), sep='\\n')\n"
        "print(len(swapped_decodes_let_through()), 'swapped decodes let through')\n"
    )
    src = Path(treepark.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines() == [
        "InvariantError: the first crosser of each edge parks above it",
        "InvariantError: every driver prefers the image subtree of her spot",
        "InvariantError: the image carries each label 1..n-1 once",
        "InvariantError: each driver takes one preference",
        "InvariantError: each vertex takes one post-order label",
        "InvariantError: the decoded pair is a standard prime, but children of vertex 4 are out of crossing order",
        "InvariantError: a path preimage must be a growth sequence",
        "InvariantError: the decoded pair is a standard prime, but underlying pair is not prime",
        "InvariantError: the decoded pair is a standard prime, but the last child of vertex 3 is not 2",
        "0 swapped decodes let through",
    ]
