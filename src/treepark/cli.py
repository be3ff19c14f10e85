"""Command line front end.

Payload flags accept either an inline value (``--tree "3 3 5 5 0"``) or a
file indirection (``--tree @tree.txt``).  Exit status convention: 0 when the
queried property holds (or the command simply succeeded), 1 when it fails,
2 on input or usage errors.  Each command imports the layers it uses, so
that a process loads only those.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import CAPS, IDENTITY_NAMES, TreeParkError, UsageError, _token

if TYPE_CHECKING:
    from .trees import RootedTree


def _payload(value: str) -> str:
    if value.startswith("@"):
        try:
            with open(value[1:]) as payload:
                return payload.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {value[1:]!r}: {exc}") from exc
    return value


def _positive_int(text: str) -> int:
    """argparse type of the size flags; argparse names the flag on error.
    Digits past what ``int`` reads are refused too, the token cut short."""
    try:
        value = int(text) if text.isdecimal() else 0
    except ValueError:  # more digits than ``int`` converts
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {_token(text)}")
    return value


def _pair(args: argparse.Namespace) -> tuple[RootedTree, tuple[int, ...]]:
    from .trees import parse_preferences, parse_rooted_tree

    return parse_rooted_tree(_payload(args.tree)), parse_preferences(_payload(args.seq))


def _cmd_park(args: argparse.Namespace) -> int:
    from .parking import park

    outcome = park(*_pair(args))
    print("spots: " + " ".join("-" if s is None else str(s) for s in outcome.spots))
    return 0 if outcome.all_parked else 1


def _predicate(label: str, holds: str) -> Callable[[argparse.Namespace], int]:
    """The command that prints whether the parking predicate named ``holds``
    holds of the pair, as ``label``."""

    def command(args: argparse.Namespace) -> int:
        from . import parking

        ok = getattr(parking, holds)(*_pair(args))
        print(f"{label}: {'true' if ok else 'false'}")
        return 0 if ok else 1

    return command


def _cmd_used_edges(args: argparse.Namespace) -> int:
    from .parking import used_edges

    edges = used_edges(*_pair(args))
    print("used-edges: " + " ".join(f"{u}->{v}" for u, v in edges))
    return 0


def _roundtrip(same: bool) -> int:
    """The ``--check`` verdict: "roundtrip: ok" and 0, or the mismatch on stderr and 1."""
    if not same:
        print("roundtrip: mismatch", file=sys.stderr)
        return 1
    print("roundtrip: ok")
    return 0


def _cmd_psi(args: argparse.Namespace) -> int:
    from .bijections import pair_to_prime, prime_to_pair
    from .trees import format_plane_tree, format_word

    tree, prefs = _pair(args)
    word, plt = prime_to_pair(tree, prefs)
    print("sigma: " + format_word(word))
    print(format_plane_tree(plt))
    return _roundtrip(pair_to_prime(word, plt) == (tree, prefs)) if args.check else 0


def _cmd_psi_inv(args: argparse.Namespace) -> int:
    from .bijections import pair_to_prime, prime_to_pair
    from .trees import format_rooted_tree, format_word, parse_permutation, parse_plane_tree

    word = parse_permutation(_payload(args.perm))
    plt = parse_plane_tree(_payload(args.ptree))
    tree, prefs = pair_to_prime(word, plt)
    print("tree: " + format_rooted_tree(tree))
    print("seq: " + format_word(prefs))
    return _roundtrip(prime_to_pair(tree, prefs) == (word, plt)) if args.check else 0


def _cmd_borie(args: argparse.Namespace) -> int:
    from .bijections import borie_map
    from .trees import format_word, parse_permutation

    word = parse_permutation(_payload(args.perm))
    print("seq: " + format_word(borie_map(word)))
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    from .series import check_identities

    names = list(IDENTITY_NAMES) if args.identity == "all" else [args.identity]
    failed = False
    for result in check_identities(args.order, names):
        if result.first_bad is None:
            print(f"{result.name}: OK (zero to order {result.order})")
        elif result.expected_zero:
            k, value = result.first_bad
            print(f"{result.name}: FAIL first nonzero at x^{k} = {value}")
            failed = True
        else:
            k, value = result.first_bad
            print(f"{result.name}: INFO first nonzero at x^{k} = {value} (not expected to vanish)")
    return 1 if failed else 0


# Headers of the first seven fields of a CountRow, in field order.
_COUNT_HEADER = ("n", "F", "P", "Ftilde", "Ptilde", "Pstar", "Fstar")


def _table(columns: Sequence[str], rows: list[tuple], fmt: str) -> None:
    """Print ``rows`` as one compact JSON list of objects keyed by ``columns``,
    or as TSV: a header, then one tab-joined line per row."""
    if fmt == "json":
        import json

        print(json.dumps([dict(zip(columns, row)) for row in rows], indent=None, separators=(",", ":")))
    else:
        print("\t".join(columns))
        for row in rows:
            print("\t".join(map(str, row)))


def _cmd_counts(args: argparse.Namespace) -> int:
    from dataclasses import astuple

    from .series import closed_counts

    rows = [astuple(row)[: len(_COUNT_HEADER)] for row in closed_counts(args.max).rows]
    _table(_COUNT_HEADER, rows, args.format)
    return 0


def _verify_rows(args: argparse.Namespace) -> list[tuple]:
    from .census import census, roundtrip_suite, theorem53_suite

    rows: list[tuple] = []
    suites = ["census", "roundtrip", "thm53"] if args.suite == "all" else [args.suite]

    if "census" in suites:
        cap = CAPS["census"] if args.allow_large else CAPS["census"] - 1
        top = cap if args.max_n is None else args.max_n
        if top > cap:
            unlock = "" if args.allow_large else f"; --allow-large unlocks n={CAPS['census']}"
            raise UsageError(f"--max-n {top} is above the census cap of {cap}{unlock}")
        for n in range(1, top + 1):
            report = census(n, allow_large=args.allow_large)
            for col in report.columns:
                rows.append(_verify_row("census", n, col.name, col.counted, col.expected, col.passed))
    if "roundtrip" in suites:
        for n in _suite_sizes(args, "roundtrip", default=CAPS["roundtrip"]):
            rows.append(_suite_row(roundtrip_suite(n)))
    if "thm53" in suites:
        for n in _suite_sizes(args, "thm53", default=CAPS["thm53"] - 1):
            rows.append(_suite_row(theorem53_suite(n)))
    return rows


def _suite_sizes(args: argparse.Namespace, suite: str, default: int) -> range:
    """Sizes 1..top for a bijection suite.  A named suite refuses a --max-n
    above its guard; ``--suite all`` clamps to it."""
    cap = CAPS[suite]
    if args.max_n is None:
        return range(1, default + 1)
    if args.max_n > cap and args.suite == suite:
        raise UsageError(f"--max-n {args.max_n} is above the {suite} cap of {cap}")
    return range(1, min(args.max_n, cap) + 1)


# The columns of a verify row, in output order.
_VERIFY_COLUMNS = ("suite", "n", "metric", "counted", "expected", "status")


def _verify_row(suite: str, n: int, metric: str, counted, expected, passed: bool) -> tuple:
    return suite, n, metric, counted, expected, "PASS" if passed else "FAIL"


def _suite_row(report) -> tuple:
    expected = report.cases if report.passed else report.failures[0]
    return _verify_row(report.name, report.n, "cases", report.cases, expected, report.passed)


def _cmd_verify(args: argparse.Namespace) -> int:
    rows = _verify_rows(args)
    _table(_VERIFY_COLUMNS, rows, args.format)
    return 0 if all(row[-1] == "PASS" for row in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treepark",
        description="Parking functions on rooted trees: simulate, map, count, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    for name, func, help_ in (
        ("park", _cmd_park, "run the parking procedure and print the spots"),
        ("check", _predicate("parking-function", "is_parking_function"), "is the pair a parking function?"),
        ("prime", _predicate("prime", "is_prime"), "is the pair a prime parking function?"),
        ("used-edges", _cmd_used_edges, "edges used by a parking function, in crossing order"),
    ):
        p = add(name, func, help_)
        p.add_argument("--tree", required=True, help="parent list, 0 marks the root (or @file)")
        p.add_argument("--seq", required=True, help="preference sequence (or @file)")

    p = add("psi", _cmd_psi, "map a prime pair to (permutation, labeled plane tree)")
    p.add_argument("--tree", required=True, help="parent list (or @file)")
    p.add_argument("--seq", required=True, help="preference sequence (or @file)")
    p.add_argument("--check", action="store_true", help="also run the inverse and compare")

    p = add("psi-inv", _cmd_psi_inv, "map (permutation, labeled plane tree) to a prime pair")
    p.add_argument("--perm", required=True, help="one-line permutation (or @file)")
    p.add_argument("--ptree", required=True, help="plane tree, e.g. *[2[1]] (or @file)")
    p.add_argument("--check", action="store_true", help="also run the forward map and compare")

    p = add("borie", _cmd_borie, "statistic map from a 132-avoiding permutation")
    p.add_argument("--perm", required=True, help="one-line permutation (or @file)")

    p = add("series", _cmd_series, "verify generating-function identities")
    p.add_argument("--order", type=_positive_int, default=12, help="truncation order (default 12)")
    p.add_argument(
        "--identity",
        default="all",
        choices=("all",) + IDENTITY_NAMES,
        help="which identity to check (default: all)",
    )

    p = add("counts", _cmd_counts, "exact count table")
    p.add_argument("--max", type=_positive_int, default=12, help="largest n (default 12)")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p = add("verify", _cmd_verify, "run exhaustive verification suites")
    p.add_argument("--suite", choices=("census", "roundtrip", "thm53", "all"), default="all")
    p.add_argument(
        "--max-n", type=_positive_int, default=None,
        help="largest n each suite visits; a named suite refuses one above its guard",
    )
    p.add_argument(
        "--allow-large", action="store_true",
        help=f"allow the n={CAPS['census']} census and run to it by default",
    )
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TreeParkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
