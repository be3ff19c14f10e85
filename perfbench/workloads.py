"""The four workloads: seeded inputs, the fixed list of operations of a run,
and the output checks.

Inputs are built here and in :mod:`inputs` without ``treepark`` code; the
only package names used while building are its data types.  Every output is
checked against :mod:`oracle` or against a property the method must have,
after the timed phase.  Operations look the package's functions up when
they run, so a traced run sees the wrapped ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from math import factorial
from pathlib import Path
from typing import Callable, NamedTuple

import inputs
import oracle


class Op(NamedTuple):
    label: str
    prepare: Callable[[], tuple]  # untimed; returns the call's arguments
    call: Callable[..., object]  # timed
    # Back-to-back calls in a measured run; the operation's time is their
    # median.  Only the census, whose inputs are fixed, repeats any.
    repeat: int = 1


def fixed(*args) -> Callable[[], tuple]:
    return lambda: args


def plane_tree(tp, labels, kids):
    """The package's labeled plane tree for a (labels, kids) array, built
    bottom-up so that deep trees need no recursion."""
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(kids[v])
    made = {}
    for v in reversed(order):
        made[v] = tp.LabeledPlaneTree(labels[v], tuple(made.pop(c) for c in kids[v]))
    return made[0]


def flatten(plt) -> list[tuple[int | None, int]]:
    """(label, number of children) of every vertex, in pre-order."""
    out, stack = [], [plt]
    while stack:
        node = stack.pop()
        out.append((node.label, len(node.children)))
        stack.extend(reversed(node.children))
    return out


def flatten_arrays(labels, kids) -> list[tuple[int | None, int]]:
    out, stack = [], [0]
    while stack:
        v = stack.pop()
        out.append((labels[v], len(kids[v])))
        stack.extend(reversed(kids[v]))
    return out


def labels_are_bijection(flat) -> bool:
    """Unlabeled root first, the other labels exactly 1..n-1."""
    rest = sorted(label for label, _ in flat[1:] if label is not None)
    return flat[0][0] is None and rest == list(range(1, len(flat)))


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


class Census:
    """``treepark verify --suite all --allow-large`` plus the path-image suite.

    The exhaustive enumerations have no free input, so the seed changes
    nothing, and there are no distinct inputs of the same kind to add.  The
    operations that take a few milliseconds sit around the median, where
    one call is one draw of the machine's noise, so they are called
    CHEAP_REPEAT times in a row.  Those repeats read caches the first call
    warmed (``trees._shapes`` already; any later memo of ``closed_counts``),
    so ``op_p50_ms`` here is a warm figure and is not for judging the census.
    """

    name = "census"
    CENSUS_SIZES = range(1, 7)
    ROUNDTRIP_SIZES = range(1, 5)
    THM53_SIZES = range(1, 8)
    PATH_SIZES = range(1, 7)
    # The largest n, per kind, of the operations that take under ~0.1 s.
    CHEAP = {"census": 4, "roundtrip": 3, "thm53": 6, "paths": 5}
    CHEAP_REPEAT = 7

    def __init__(self, tp, seed: int, root: Path, inprocess: bool) -> None:
        self.tp = tp

    def operations(self) -> list[Op]:
        tp = self.tp
        calls = {
            "census": (self.CENSUS_SIZES, lambda n: tp.census(n, allow_large=True)),
            "roundtrip": (self.ROUNDTRIP_SIZES, lambda n: tp.roundtrip_suite(n)),
            "thm53": (self.THM53_SIZES, lambda n: tp.theorem53_suite(n)),
            "paths": (self.PATH_SIZES, lambda n: tp.path_image_suite(n)),
        }
        return [
            Op(f"{kind}-{n}", fixed(n), call, self.CHEAP_REPEAT if n <= self.CHEAP[kind] else 1)
            for kind, (sizes, call) in calls.items()
            for n in sizes
        ]

    def _counts(self, results: dict, failed: set[str]) -> dict[int, tuple[dict, bool]]:
        """Column counts and the package's own verdict, by n."""
        out = {}
        for n in self.CENSUS_SIZES:
            if f"census-{n}" not in failed:
                report = results[f"census-{n}"]
                out[n] = ({c.name: c.counted for c in report.columns}, report.passed)
        return out

    def check(self, results: dict, failed: set[str]) -> list[str]:
        bad = []
        counts = self._counts(results, failed)
        for n, (got, passed) in sorted(counts.items()):
            want = {
                "parking": oracle.parking_pairs(n),
                "prime": oracle.prime_pairs(n),
                "prime_distribution": oracle.prime_distributions(n),
                "standard_prime": oracle.standard_primes(n),
            }
            if n <= oracle.BRUTE_LIMIT:
                want.update(oracle.brute_distributions(n))
            for column, value in want.items():
                if got[column] != value:
                    bad.append(f"census n={n} {column}: counted {got[column]}, oracle {value}")
            # The leaf-weighted columns against the previous census.
            if n == 1:
                marked = {"marked_prime": 1, "marked_distribution": 1}
            elif n - 1 in counts:
                previous = counts[n - 1][0]
                marked = {
                    "marked_prime": n * (n - 1) * previous["prime_distribution"],
                    "marked_distribution": 2 * n * (n - 1) * previous["distribution"],
                }
            else:
                marked = {}
            for column, value in marked.items():
                if got[column] != value:
                    bad.append(f"census n={n} {column}: counted {got[column]}, relation gives {value}")
            if not passed:
                bad.append(f"census n={n} disagrees with the package's closed forms")
        expected_cases = {
            "roundtrip": (self.ROUNDTRIP_SIZES, lambda n: 2 * factorial(2 * n - 2)),
            "thm53": (self.THM53_SIZES, oracle.catalan),
            "paths": (self.PATH_SIZES, factorial),
        }
        for suite, (sizes, cases) in expected_cases.items():
            for n in sizes:
                if f"{suite}-{n}" in failed:
                    continue
                report = results[f"{suite}-{n}"]
                if not report.passed or report.cases != cases(n):
                    bad.append(
                        f"{suite} n={n}: passed={report.passed} cases={report.cases}, want {cases(n)}"
                    )
        return bad

    def fixed_counts(self) -> dict[str, int]:
        # Cayley: each enumeration yields n^(n-1) trees; the round-trip suite
        # enumerates n <= 4 once more.
        cayley = sum(n ** (n - 1) for n in self.CENSUS_SIZES)
        cayley += sum(n ** (n - 1) for n in self.ROUNDTRIP_SIZES)
        return {
            "trees.enumerate_rooted_trees.items": cayley,
            "census.census.calls": len(self.CENSUS_SIZES),
            "census.census_counts.calls": len(self.CENSUS_SIZES),
        }


# ---------------------------------------------------------------------------
# bijection
# ---------------------------------------------------------------------------


class Bijection:
    """Round trips of uniform random pairs through both maps, plus a few deep
    inputs whose cubic encoding dominates the wall time."""

    name = "bijection"
    # Size -> number of random pairs.  Most are on 16 vertices, so that the
    # median operation is a 16-vertex map and not the shape of a few inputs;
    # one call of a few milliseconds is one draw of the machine's noise, so
    # there are many of them.
    SHALLOW = {8: 24, 16: 120, 32: 24, 64: 6, 100: 4, 150: 4}
    PATH_SIZES = (100, 200)  # n and 2n, for the growth exponent
    CATERPILLAR = (120, 80)  # spine, legs: 201 vertices

    def __init__(self, tp, seed: int, root: Path, inprocess: bool) -> None:
        self.tp = tp
        rng = random.Random(seed)
        made = []
        for n, count in self.SHALLOW.items():
            for j in range(count):
                made.append((f"random-{n}-{j}", inputs.random_plane_pair(rng, n)))
        for n in self.PATH_SIZES:
            made.append((f"path-{n}", inputs.labeled_path_pair(rng, n)))
        made.append(("caterpillar-201", inputs.caterpillar_pair(rng, *self.CATERPILLAR)))
        self.inputs = []
        for key, (word, labels, kids) in made:
            n = len(word)
            tau = list(range(1, n + 1))
            rng.shuffle(tau)
            self.inputs.append(
                {
                    "key": key,
                    "word": word,
                    "plt": plane_tree(tp, labels, kids),
                    "flat": flatten_arrays(labels, kids),
                    "tau": tau,
                    "path": key.startswith("path"),
                }
            )
        # Alike operations spread over the whole run, so that the median
        # does not hang on the machine's state during one short stretch.
        rng.shuffle(self.inputs)
        self.results: dict = {}
        self.relabeled: dict = {}

    def _relabel(self, key: str, tau: list[int]):
        """The decoded prime pair with vertex v renamed tau[v - 1]."""
        tree, prefs = self.results[f"{key}/decode"]
        parents = [0] * len(tau)
        for v, p in enumerate(tree.parents, start=1):
            parents[tau[v - 1] - 1] = tau[p - 1] if p else 0
        pair = (self.tp.RootedTree(tuple(parents)), tuple(tau[s - 1] for s in prefs))
        self.relabeled[key] = pair
        return pair

    def operations(self) -> list[Op]:
        tp = self.tp
        ops = []
        for item in self.inputs:
            key = item["key"]
            ops += [
                Op(
                    f"{key}/decode",
                    fixed(item["word"], item["plt"]),
                    lambda w, t: tp.pair_to_prime(w, t),
                ),
                Op(
                    f"{key}/encode",
                    lambda key=key: self.results[f"{key}/decode"],
                    lambda t, s: tp.prime_to_pair(t, s),
                ),
                Op(
                    f"{key}/encode-relabeled",
                    lambda key=key, tau=item["tau"]: self._relabel(key, tau),
                    lambda t, s: tp.prime_to_pair(t, s),
                ),
                Op(
                    f"{key}/decode-back",
                    lambda key=key: self.results[f"{key}/encode-relabeled"],
                    lambda w, t: tp.pair_to_prime(w, t),
                ),
            ]
        return ops

    def check(self, results: dict, failed: set[str]) -> list[str]:
        bad = []
        for item in self.inputs:
            key, n = item["key"], len(item["word"])
            if any(label.startswith(key + "/") for label in failed):
                continue
            tree, prefs = results[f"{key}/decode"]
            parents = tree.parents
            if not (len(parents) == n and oracle.is_rooted_tree(parents) and oracle.is_prime(parents, prefs)):
                bad.append(f"{key}: decoded pair is not a prime pair on {n} vertices")
            if item["path"] and not oracle.is_path(parents):
                bad.append(f"{key}: a labeled path did not decode to a path")
            word, plt = results[f"{key}/encode"]
            if word != item["word"] or flatten(plt) != item["flat"]:
                bad.append(f"{key}: pair -> prime -> pair did not return its input")
            word, plt = results[f"{key}/encode-relabeled"]
            flat = flatten(plt)
            if not labels_are_bijection(flat) or sorted(word) != list(range(1, n + 1)):
                bad.append(f"{key}: encoded pair is not (permutation, [n-1]-labeled plane tree)")
            if flat != item["flat"]:
                bad.append(f"{key}: relabeling the vertices changed the plane tree")
            back = results[f"{key}/decode-back"]
            want = self.relabeled[key]
            if back[0].parents != want[0].parents or tuple(back[1]) != want[1]:
                bad.append(f"{key}: prime -> pair -> prime did not return its input")
        return bad

    def fixed_counts(self) -> dict[str, int]:
        maps = 2 * len(self.inputs)
        return {"bijections.pair_to_prime.calls": maps, "bijections.prime_to_pair.calls": maps}

    def exponent_ops(self) -> dict[str, tuple[str, list[str], list[str]]]:
        """Per exponent metric: the span to time, and the ops at n and at 2n."""
        small, large = (f"path-{n}" for n in self.PATH_SIZES)
        return {
            "bijections.encode_path_exponent": (
                "bijections.encode_prime",
                [f"{small}/encode", f"{small}/encode-relabeled"],
                [f"{large}/encode", f"{large}/encode-relabeled"],
            ),
            "bijections.decode_path_exponent": (
                "bijections.decode_prime",
                [f"{small}/decode", f"{small}/decode-back"],
                [f"{large}/decode", f"{large}/decode-back"],
            ),
        }


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


class SeriesWork:
    """Every identity at a few orders, then the exact count table."""

    name = "series"
    # Every order from 10 to 16, where calls take tens of milliseconds and
    # sit around the median, so that many distinct calls set it; then a few
    # larger orders.
    ORDERS = (10, 11, 12, 13, 14, 15, 16, 19, 22, 25)
    TABLE_SIZES = (10, 20, 30)
    # The one relation the package documents without expecting it to vanish.
    INFORMATIONAL = "marked-distribution-unnormalized"

    def __init__(self, tp, seed: int, root: Path, inprocess: bool) -> None:
        self.tp = tp
        # Costs are fixed by the orders; the seed only shuffles the run order.
        plan = [("check", name, order) for order in self.ORDERS for name in tp.IDENTITY_NAMES]
        plan += [("table", None, size) for size in self.TABLE_SIZES]
        random.Random(seed).shuffle(plan)
        self.plan = plan

    def operations(self) -> list[Op]:
        tp = self.tp
        ops = []
        for kind, name, order in self.plan:
            if kind == "check":
                ops.append(Op(f"{name}@{order}", fixed(name, order), lambda a, b: tp.check_identity(a, b)))
            else:
                ops.append(Op(f"table@{order}", fixed(order), lambda m: tp.closed_counts(m)))
        return ops

    def check(self, results: dict, failed: set[str]) -> list[str]:
        bad = []
        names = self.tp.IDENTITY_NAMES
        if len(names) != 16 or self.INFORMATIONAL not in names:
            bad.append(f"expected 15 identities and {self.INFORMATIONAL}, got {names}")
        for kind, name, order in self.plan:
            if (f"{name}@{order}" if kind == "check" else f"table@{order}") in failed:
                continue
            if kind == "check":
                result = results[f"{name}@{order}"]
                if result.name != name or result.order < order:
                    bad.append(f"{name}@{order}: result is for {result.name} at order {result.order}")
                if name == self.INFORMATIONAL:
                    if result.expected_zero:
                        bad.append(f"{name}@{order}: informational identity marked as expected zero")
                elif result.first_bad is not None or not result.expected_zero:
                    bad.append(f"{name}@{order}: residual not exactly zero: {result.first_bad}")
            else:
                bad += check_count_rows(results[f"table@{order}"].rows, order)
        return bad

    def fixed_counts(self) -> dict[str, int]:
        return {
            "series.check_identity.calls": len(self.ORDERS) * len(self.tp.IDENTITY_NAMES),
            "series.closed_counts.calls": len(self.TABLE_SIZES),
        }


def check_count_rows(rows, size: int) -> list[str]:
    """Count-table rows 1..size against the oracle and the leaf relations."""
    bad = []
    if [row.n for row in rows] != list(range(1, size + 1)):
        return [f"count table up to {size} has rows {[row.n for row in rows]}"]
    for row in rows:
        n = row.n
        want = {
            "parking": oracle.parking_pairs(n),
            "prime": oracle.prime_pairs(n),
            "prime_distribution": oracle.prime_distributions(n),
            "catalan": oracle.catalan(n - 1),
            "schroder": oracle.schroder(n - 1),
        }
        if n <= oracle.BRUTE_LIMIT:
            want["distribution"] = oracle.brute_distributions(n)["distribution"]
        if n == 1:
            want.update(marked_prime=1, marked_distribution=1)
        else:
            prev = rows[n - 2]
            want["marked_prime"] = n * (n - 1) * oracle.prime_distributions(n - 1)
            want["marked_distribution"] = 2 * n * (n - 1) * prev.distribution
        for column, value in want.items():
            if getattr(row, column) != value:
                bad.append(f"count table n={n} {column}: {getattr(row, column)}, oracle {value}")
    return bad


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def tree_text(parents) -> str:
    return " ".join(str(p) for p in parents)


def plane_text(labels, kids) -> str:
    """The ``*[6[3] 2[5 4]]`` form, written without recursion."""
    out, stack = [], [0]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append("*" if labels[item] is None else str(labels[item]))
        if kids[item]:
            stack.append("]")
            for i, child in enumerate(reversed(kids[item])):
                if i:
                    stack.append(" ")
                stack.append(child)
            stack.append("[")
    return "".join(out)


def random_tree(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random recursive tree under a random labeling."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    parents = [0] * n
    for i in range(1, n):
        parents[order[i] - 1] = order[rng.randrange(i)]
    return tuple(parents)


def prime_pair(rng: random.Random, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A prime pair on n >= 2 vertices: the root has one child, every other
    vertex at most two, and a vertex with k children is preferred 2 - k
    times.  Then each proper subtree of size m receives exactly m + 1."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    parents = [0] * n
    parents[order[1] - 1] = order[0]
    kids = {order[1]: 0}
    open_ = [order[1]]
    for v in order[2:]:
        p = rng.choice(open_)
        parents[v - 1] = p
        kids[p] += 1
        if kids[p] == 2:
            open_.remove(p)
        kids[v] = 0
        open_.append(v)
    prefs = [v for v in order[1:] for _ in range(2 - kids[v])]
    rng.shuffle(prefs)
    if not oracle.is_prime(parents, prefs):
        raise RuntimeError(f"prime_pair built a non-prime pair: {parents} {prefs}")
    return tuple(parents), tuple(prefs)


def avoiding_132(rng: random.Random, n: int) -> list[int]:
    """A random 132-avoiding permutation: n sits where everything to its
    left exceeds everything to its right, and both sides avoid 132."""

    def build(values: list[int]) -> list[int]:
        if not values:
            return []
        top, rest = values[-1], values[:-1]
        k = rng.randrange(len(values))
        return build(rest[len(rest) - k :]) + [top] + build(rest[: len(rest) - k])

    return build(list(range(1, n + 1)))


def parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in re.findall(r"\d+", text)]


class Cli:
    """Sequential ``python -m treepark.cli`` calls covering every subcommand,
    each timed from spawn to exit.  In-process mode (baseline and traced runs)
    calls ``cli.main`` instead, with its streams captured."""

    name = "cli"

    def __init__(self, tp, seed: int, root: Path, inprocess: bool) -> None:
        import treepark.cli  # noqa: F401  (in-process runs call it)

        self.tp = tp
        self.root = root
        self.inprocess = inprocess
        self.files = root / "perfbench" / "out" / f"cli-{seed}"
        self.files.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env
        rng = random.Random(seed)
        self.cases: list[tuple[list[str], Callable]] = []
        self._build(rng)

    def _file(self, name: str, text: str) -> str:
        path = self.files / name
        path.write_text(text + "\n")
        return "@" + str(path.relative_to(self.root))

    def _pair_kinds(self, rng, n):
        """A prime pair, a parking-but-not-prime pair and a random pair."""
        parents, prefs = prime_pair(rng, n)
        yield parents, prefs
        parents = random_tree(rng, n)
        ident = list(range(1, n + 1))
        rng.shuffle(ident)
        yield parents, tuple(ident)
        yield random_tree(rng, n), tuple(rng.randint(1, n) for _ in range(n))

    def _build(self, rng: random.Random) -> None:
        add = self.cases.append
        pairs = [pair for _ in range(4) for pair in self._pair_kinds(rng, rng.randint(3, 9))]
        medium = [prime_pair(rng, n) for n in (60, 80)]
        for i, (parents, prefs) in enumerate(medium):
            tree_arg = self._file(f"tree-{i}.txt", tree_text(parents))
            seq_arg = self._file(f"seq-{i}.txt", tree_text(prefs))
            add((["park", "--tree", tree_arg, "--seq", seq_arg], self._expect_park(parents, prefs)))
            add((["prime", "--tree", tree_arg, "--seq", seq_arg], self._expect_predicate("prime", parents, prefs)))
        for parents, prefs in pairs:  # 12 pairs
            args = ["--tree", tree_text(parents), "--seq", tree_text(prefs)]
            add((["park"] + args, self._expect_park(parents, prefs)))
            add((["prime"] + args, self._expect_predicate("prime", parents, prefs)))
        for parents, prefs in pairs[:8]:
            args = ["--tree", tree_text(parents), "--seq", tree_text(prefs)]
            add((["check"] + args, self._expect_predicate("parking-function", parents, prefs)))
        parking = [(t, s) for t, s in pairs if oracle.is_parking(t, s)]
        for parents, prefs in parking[:8]:
            add((["used-edges", "--tree", tree_text(parents), "--seq", tree_text(prefs)], self._expect_edges(parents, prefs)))
        for i, n in enumerate([3, 4, 5, 6, 7, 8, 9, 10, 40, 60]):
            parents, prefs = prime_pair(rng, n)
            tree_arg, seq_arg = tree_text(parents), tree_text(prefs)
            if n >= 40:
                tree_arg = self._file(f"psi-tree-{i}.txt", tree_arg)
                seq_arg = self._file(f"psi-seq-{i}.txt", seq_arg)
            add((["psi", "--tree", tree_arg, "--seq", seq_arg, "--check"], self._expect_psi(n)))
        for i, n in enumerate([2, 3, 4, 5, 6, 7, 8, 9, 60, 80]):
            word, labels, kids = inputs.random_plane_pair(rng, n)
            perm_arg, ptree_arg = tree_text(word), plane_text(labels, kids)
            if n >= 60:
                perm_arg = self._file(f"perm-{i}.txt", perm_arg)
                ptree_arg = self._file(f"ptree-{i}.txt", ptree_arg)
            add((["psi-inv", "--perm", perm_arg, "--ptree", ptree_arg, "--check"], self._expect_psi_inv(n)))
        for n in [1, 2, 3, 4, 5, 6, 7, 8]:
            add((["borie", "--perm", tree_text(avoiding_132(rng, n))], self._expect_borie(n)))
        names = list(self.tp.IDENTITY_NAMES)
        rng.shuffle(names)
        for name in names[:8]:
            add((["series", "--order", "8", "--identity", name], self._expect_series(name)))
        for size, fmt in [(4, "tsv"), (5, "json"), (6, "tsv"), (7, "json"), (8, "tsv"), (10, "json")]:
            add((["counts", "--max", str(size), "--format", fmt], self._expect_counts(size, fmt)))
        for argv in (
            ["verify", "--suite", "thm53", "--max-n", "5"],
            ["verify", "--suite", "roundtrip", "--max-n", "3"],
            ["verify", "--suite", "census", "--max-n", "3"],
            ["verify", "--suite", "thm53", "--max-n", "4", "--format", "json"],
        ):
            add((argv, self._expect_verify()))
        n = rng.randint(4, 8)
        parents = random_tree(rng, n)
        ident = tree_text(range(1, n + 1))
        not_parking = tree_text([parents.index(0) + 1] * n)  # everyone wants the root
        for argv in (
            ["park", "--tree", "2 3 1", "--seq", "1 1 1"],  # no root: a cycle
            ["park", "--tree", tree_text(parents), "--seq", tree_text([n + 1] + [1] * (n - 1))],
            ["check", "--tree", tree_text(parents), "--seq", "1 1"],
            ["prime", "--tree", tree_text(parents), "--seq", "1 x 2"],
            ["psi", "--tree", tree_text(parents), "--seq", ident],  # parking, not prime
            ["psi-inv", "--perm", "1 1 2", "--ptree", "*[1[2]]"],
            ["psi-inv", "--perm", "1 2 3", "--ptree", "*[1 ["],
            ["borie", "--perm", "1 3 2"],
            ["used-edges", "--tree", tree_text(parents), "--seq", not_parking],
            ["park", "--tree", "@" + str((self.files / "missing.txt").relative_to(self.root)), "--seq", "1"],
            ["series", "--identity", "no-such-identity"],
            ["counts", "--format", "xml"],
        ):
            add((argv, self._expect_usage_error()))

    # -- expectations: each returns a checker of (code, out, err) ------------

    @staticmethod
    def _expect_park(parents, prefs):
        spots = oracle.park(parents, prefs)
        line = "spots: " + " ".join("-" if s is None else str(s) for s in spots)
        code = 0 if None not in spots else 1
        return lambda c, out, err: c == code and out.splitlines() == [line]

    @staticmethod
    def _expect_predicate(word, parents, prefs):
        ok = (oracle.is_prime if word == "prime" else oracle.is_parking)(parents, prefs)
        line = f"{word}: {'true' if ok else 'false'}"
        return lambda c, out, err: c == (0 if ok else 1) and out.splitlines() == [line]

    @staticmethod
    def _expect_edges(parents, prefs):
        line = "used-edges: " + " ".join(f"{u}->{v}" for u, v in oracle.first_crossings(parents, prefs))
        return lambda c, out, err: c == 0 and out.splitlines() == [line]

    @staticmethod
    def _expect_psi(n):
        def check(c, out, err):
            lines = out.splitlines()
            if c != 0 or len(lines) != 3 or not lines[0].startswith("sigma: "):
                return False
            word = parse_ints(lines[0])
            labels = parse_ints(lines[1])
            return (
                sorted(word) == list(range(1, n + 1))
                and lines[1].count("*") == 1
                and sorted(labels) == list(range(1, n))
                and lines[2] == "roundtrip: ok"
            )

        return check

    @staticmethod
    def _expect_psi_inv(n):
        def check(c, out, err):
            lines = out.splitlines()
            if c != 0 or len(lines) != 3 or not lines[0].startswith("tree: "):
                return False
            parents, prefs = parse_ints(lines[0]), parse_ints(lines[1])
            return (
                len(parents) == n
                and oracle.is_rooted_tree(tuple(parents))
                and oracle.is_prime(tuple(parents), tuple(prefs))
                and lines[2] == "roundtrip: ok"
            )

        return check

    @staticmethod
    def _expect_borie(n):
        path = tuple(range(2, n + 1)) + (0,)

        def check(c, out, err):
            seq = parse_ints(out)
            return (
                c == 0
                and out.startswith("seq: ")
                and len(seq) == n
                and all(a <= b for a, b in zip(seq, seq[1:]))
                and None not in oracle.park(path, seq)
            )

        return check

    def _expect_series(self, name):
        informational = name == SeriesWork.INFORMATIONAL

        def check(c, out, err):
            lines = out.splitlines()
            if c != 0 or len(lines) != 1 or not lines[0].startswith(f"{name}: "):
                return False
            return informational or lines[0] == f"{name}: OK (zero to order 8)"

        return check

    @staticmethod
    def _expect_counts(size, fmt):
        def check(c, out, err):
            if c != 0:
                return False
            if fmt == "json":
                cells = [[row[k] for k in ("n", "F", "P", "Ftilde", "Ptilde", "Pstar", "Fstar")] for row in json.loads(out)]
            else:
                lines = out.splitlines()
                if lines[0].split("\t") != ["n", "F", "P", "Ftilde", "Ptilde", "Pstar", "Fstar"]:
                    return False
                cells = [[int(x) for x in line.split("\t")] for line in lines[1:]]
            if [row[0] for row in cells] != list(range(1, size + 1)):
                return False
            for n, f, p, ft, pt, ps, fs in cells:
                ok = f == oracle.parking_pairs(n) and p == oracle.prime_pairs(n)
                ok = ok and pt == oracle.prime_distributions(n)
                if n <= oracle.BRUTE_LIMIT:
                    ok = ok and ft == oracle.brute_distributions(n)["distribution"]
                if n > 1:
                    ok = ok and ps == n * (n - 1) * oracle.prime_distributions(n - 1)
                    ok = ok and fs == 2 * n * (n - 1) * cells[n - 2][3]
                if not ok:
                    return False
            return True

        return check

    @staticmethod
    def _expect_verify():
        expected_cases = {
            "thm53": oracle.catalan,
            "roundtrip": lambda n: 2 * factorial(2 * n - 2),
        }
        census_want = {
            "parking": oracle.parking_pairs,
            "prime": oracle.prime_pairs,
            "prime_distribution": oracle.prime_distributions,
            "standard_prime": oracle.standard_primes,
            "distribution": lambda n: oracle.brute_distributions(n)["distribution"],
            "marked_prime": lambda n: oracle.brute_distributions(n)["marked_prime"],
            "marked_distribution": lambda n: oracle.brute_distributions(n)["marked_distribution"],
        }

        def check(c, out, err):
            if c != 0:
                return False
            if out.startswith("["):
                rows = json.loads(out)
            else:
                lines = out.splitlines()
                keys = lines[0].split("\t")
                rows = [dict(zip(keys, line.split("\t"))) for line in lines[1:]]
            if not rows:
                return False
            for row in rows:
                n, counted = int(row["n"]), int(row["counted"])
                if row["status"] != "PASS":
                    return False
                if row["suite"] == "census":
                    if counted != census_want[row["metric"]](n):
                        return False
                elif counted != expected_cases[row["suite"]](n):
                    return False
            return True

        return check

    @staticmethod
    def _expect_usage_error():
        return lambda c, out, err: c == 2 and err.strip() != "" and "Traceback" not in err

    # -- running -----------------------------------------------------------------

    def _spawn(self, argv: list[str]):
        done = subprocess.run(
            [sys.executable, "-m", "treepark.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        return done.returncode, done.stdout, done.stderr

    def _in_process(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.tp.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def operations(self) -> list[Op]:
        run = self._in_process if self.inprocess else self._spawn
        return [Op(f"{i:03d}-{argv[0]}", fixed(argv), run) for i, (argv, _) in enumerate(self.cases)]

    def check(self, results: dict, failed: set[str]) -> list[str]:
        bad = []
        for i, (argv, expect) in enumerate(self.cases):
            if f"{i:03d}-{argv[0]}" in failed:
                continue
            code, out, err = results[f"{i:03d}-{argv[0]}"]
            if not expect(code, out, err):
                bad.append(f"cli {' '.join(argv)[:120]!r}: exit {code}, out {out[:200]!r}, err {err[:200]!r}")
        return bad

    def crashed(self, result) -> bool:
        """A call that died outside the 0/1/2 convention, or with a traceback."""
        code, _, err = result
        return code not in (0, 1, 2) or "Traceback" in err

    def fixed_counts(self) -> dict[str, int]:
        return {"cli.main.calls": len(self.cases)}


WORKLOADS = {w.name: w for w in (Census, Bijection, SeriesWork, Cli)}
