"""Command line behavior: formats, exit codes, file indirection."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import treepark
from treepark.cli import main

SRC = str(Path(treepark.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPark:
    def test_figure_example(self, capsys):
        code, out, _ = run(capsys, "park", "--tree", "3 3 5 5 0", "--seq", "2 2 1 4 2")
        assert code == 0
        assert out == "spots: 2 3 1 4 5\n"

    def test_failure_exits_one(self, capsys):
        code, out, _ = run(capsys, "park", "--tree", "2 3 4 5 0", "--seq", "3 3 3 4 5")
        assert code == 1
        assert out.startswith("spots: 3 4 5 - -")

    def test_bad_tree_exits_two(self, capsys):
        code, _, err = run(capsys, "park", "--tree", "2 3 2", "--seq", "1 1 1")
        assert code == 2
        assert "cycle" in err

    def test_file_indirection(self, capsys, tmp_path):
        tree = tmp_path / "tree.txt"
        tree.write_text("3 3 5 5 0\n")
        code, out, _ = run(capsys, "park", "--tree", f"@{tree}", "--seq", "2 2 1 4 2")
        assert code == 0 and "2 3 1 4 5" in out

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "park", "--tree", "@/no/such/file", "--seq", "1")
        assert code == 2

    def test_a_bad_token_in_a_long_file_is_named_alone(self, capsys, tmp_path):
        tree = tmp_path / "tree.txt"
        tree.write_text("1 " * 10**5 + "x\n")
        code, out, err = run(capsys, "park", "--tree", f"@{tree}", "--seq", "1")
        assert (code, out) == (2, "")
        assert err == "error: tree: expected whitespace-separated integers, got 'x'\n"

    def test_binary_file_exits_two(self, capsys, tmp_path):
        payload = tmp_path / "bin.txt"
        payload.write_bytes(b"\xff\xfe 0\n")
        code, out, err = run(capsys, "park", "--tree", f"@{payload}", "--seq", "1")
        assert (code, out) == (2, "")
        assert "cannot read" in err and str(payload) in err
        done = subprocess.run(
            [sys.executable, "-m", "treepark.cli", "park", "--tree", f"@{payload}", "--seq", "1"],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2 and "cannot read" in done.stderr
        assert "Traceback" not in done.stderr


class TestPredicates:
    def test_prime_true(self, capsys):
        code, out, _ = run(capsys, "prime", "--tree", "2 4 4 5 0", "--seq", "1 3 2 3 1")
        assert code == 0 and out == "prime: true\n"

    def test_prime_false(self, capsys):
        code, out, _ = run(capsys, "prime", "--tree", "3 3 5 5 0", "--seq", "2 2 1 4 2")
        assert code == 1 and out == "prime: false\n"

    def test_check(self, capsys):
        code, out, _ = run(capsys, "check", "--tree", "3 3 5 5 0", "--seq", "2 2 1 4 2")
        assert code == 0 and out == "parking-function: true\n"

    def test_used_edges(self, capsys):
        code, out, _ = run(capsys, "used-edges", "--tree", "3 3 5 5 0", "--seq", "2 2 1 4 2")
        assert code == 0 and out == "used-edges: 2->3 3->5\n"

    def test_used_edges_refuses_non_parking(self, capsys):
        code, _, err = run(capsys, "used-edges", "--tree", "2 3 4 5 0", "--seq", "3 3 3 4 5")
        assert code == 2 and "parking function" in err


class TestMaps:
    def test_psi_figure(self, capsys):
        code, out, _ = run(capsys, "psi", "--tree", "0 3 4 1 4", "--seq", "2 5 3 5 2")
        assert code == 0
        assert out.splitlines()[0] == "sigma: 5 1 2 4 3"

    def test_psi_roundtrip_mode(self, capsys):
        code, out, _ = run(
            capsys, "psi", "--tree", "0 3 4 1 4", "--seq", "2 5 3 5 2", "--check"
        )
        assert code == 0 and "roundtrip: ok" in out

    @pytest.mark.parametrize(
        "argv, inverse",
        [
            (("psi", "--tree", "0 3 4 1 4", "--seq", "2 5 3 5 2"), "pair_to_prime"),
            (("psi-inv", "--perm", "1 2", "--ptree", "*[1]"), "prime_to_pair"),
        ],
    )
    def test_roundtrip_mismatch_exits_one(self, capsys, monkeypatch, argv, inverse):
        # the command imports the map from its layer when it runs
        monkeypatch.setattr(treepark.bijections, inverse, lambda *pair: (None, None))
        code, out, err = run(capsys, *argv, "--check")
        assert (code, err) == (1, "roundtrip: mismatch\n")
        assert "roundtrip" not in out

    def test_psi_rejects_non_prime(self, capsys):
        code, _, err = run(capsys, "psi", "--tree", "3 3 5 5 0", "--seq", "2 2 1 4 2")
        assert code == 2 and "prime" in err

    def test_psi_inv(self, capsys):
        code, out, _ = run(
            capsys, "psi-inv", "--perm", "1 2", "--ptree", "*[1]", "--check"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "tree: 2 0"
        assert lines[1] == "seq: 1 1"

    def test_psi_roundtrip_through_text(self, capsys):
        code, out, _ = run(
            capsys, "psi", "--tree", "2 3 4 5 8 7 8 9 0", "--seq", "6 4 1 3 3 1 6 7 2"
        )
        assert code == 0
        sigma = out.splitlines()[0].removeprefix("sigma: ")
        ptree = out.splitlines()[1]
        assert ptree == "*[6[3] 2[5 4] 8[7[1]]]"
        code, out, _ = run(capsys, "psi-inv", "--perm", sigma, "--ptree", ptree)
        assert code == 0
        assert out.splitlines() == ["tree: 2 3 4 5 8 7 8 9 0", "seq: 6 4 1 3 3 1 6 7 2"]

    def test_psi_inv_rejects_an_inner_unlabeled_vertex(self, capsys):
        code, out, err = run(capsys, "psi-inv", "--perm", "1 2 3", "--ptree", "*[1 *]")
        assert (code, out, err) == (2, "", "error: unlabeled vertex below the root\n")

    def test_psi_inv_refuses_a_label_too_long_to_read(self, capsys):
        label = "1" + "0" * 4400  # more digits than ``int`` converts by default
        code, out, err = run(capsys, "psi-inv", "--perm", "1", "--ptree", f"*[{label}]")
        assert (code, out) == (2, "") and err.startswith("error: plane tree: ")
        assert "4401 digits" in err and label not in err

    def test_borie(self, capsys):
        code, out, _ = run(capsys, "borie", "--perm", "2 1")
        assert code == 0 and out == "seq: 1 2\n"

    def test_borie_rejects_pattern(self, capsys):
        code, _, err = run(capsys, "borie", "--perm", "1 3 2")
        assert code == 2 and "132" in err


class TestDeepInputs:
    """Paths far deeper than the default recursion limit, end to end."""

    def cli(self, *argv):
        # a fresh interpreter runs at the default recursion limit
        return subprocess.run(
            [sys.executable, "-m", "treepark.cli", *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_psi_on_a_1200_vertex_path(self, tmp_path):
        word = list(range(1, 1200))
        random.Random(1200).shuffle(word)
        tree, seq, ptree = tmp_path / "tree.txt", tmp_path / "seq.txt", tmp_path / "ptree.txt"
        tree.write_text(treepark.format_rooted_tree(treepark.path_tree(1200)))
        seq.write_text(treepark.format_word(treepark.path_preimage_seq(word)))
        done = self.cli("psi", "--tree", f"@{tree}", "--seq", f"@{seq}", "--check")
        assert done.returncode == 0, done.stderr
        sigma, image, verdict = done.stdout.splitlines()
        assert sigma == "sigma: " + " ".join(map(str, range(1, 1201)))
        assert image == treepark.format_plane_tree(treepark.labeled_path(word))
        assert verdict == "roundtrip: ok"

        perm = tmp_path / "perm.txt"
        perm.write_text(sigma.removeprefix("sigma: "))
        ptree.write_text(image)
        done = self.cli("psi-inv", "--perm", f"@{perm}", "--ptree", f"@{ptree}", "--check")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "tree: " + tree.read_text(),
            "seq: " + seq.read_text(),
            "roundtrip: ok",
        ]

    def test_pair_to_prime_on_an_800_vertex_path(self):
        word = tuple(range(1, 800))
        tree, prefs = treepark.pair_to_prime(tuple(range(1, 801)), treepark.labeled_path(word))
        assert tree == treepark.path_tree(800)
        assert prefs == treepark.path_preimage_seq(word)


class TestSeriesAndCounts:
    def test_series_all_ok(self, capsys):
        code, out, _ = run(capsys, "series", "--order", "8")
        assert code == 0
        assert "parking-composition: OK" in out
        assert "INFO" in out  # the informational residual is reported, not failed

    def test_a_nonzero_residual_fails(self, capsys, monkeypatch):
        # the doctored residual is x itself: its first nonzero term is x^1 = 1
        monkeypatch.setitem(treepark.series._RESIDUALS, "schroder-gf", treepark.series.x_series)
        code, out, err = run(capsys, "series", "--order", "6")
        assert (code, err) == (1, "")
        assert "schroder-gf: FAIL first nonzero at x^1 = 1" in out.splitlines()
        assert sum("FAIL" in line for line in out.splitlines()) == 1

    def test_single_identity(self, capsys):
        code, out, _ = run(capsys, "series", "--order", "6", "--identity", "prime-derivative")
        assert code == 0 and out.startswith("prime-derivative: OK")

    def test_counts_tsv(self, capsys):
        code, out, _ = run(capsys, "counts", "--max", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n\tF\tP\tFtilde\tPtilde\tPstar\tFstar"
        p_column = [line.split("\t")[2] for line in lines[1:]]
        assert p_column == ["1", "2", "24", "720", "40320"]

    def test_counts_json_mirrors_tsv(self, capsys):
        code, out, _ = run(capsys, "counts", "--max", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[2] == {
            "n": 3, "F": 132, "P": 24, "Ftilde": 39, "Ptilde": 12, "Pstar": 12, "Fstar": 48,
        }

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "counts", "--max", "4")
        _, second, _ = run(capsys, "counts", "--max", "4")
        assert first == second


class TestVerify:
    def test_small_all(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "2")
        assert code == 0
        assert "FAIL" not in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "roundtrip", "--max-n", "2", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert all(row["status"] == "PASS" for row in rows)
        assert {row["n"] for row in rows} == {1, 2}


class TestVerifyCensusCap:
    def test_max_n_above_cap_needs_allow_large(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "census", "--max-n", "7")
        assert code == 2 and out == ""
        assert "--allow-large" in err

    def test_max_n_above_cap_with_allow_large(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "census", "--max-n", "8", "--allow-large"
        )
        assert code == 2 and out == ""
        assert "cap of 7" in err

    def test_all_suites_respect_the_census_cap(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "all", "--max-n", "7")
        assert code == 2 and out == ""
        assert "--allow-large" in err

    def test_allow_large_runs_the_census_to_seven(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "census", "--allow-large", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert {row["n"] for row in rows} == set(range(1, 8))
        assert all(row["status"] == "PASS" for row in rows)

    def test_default_cap_is_six(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "census", "--format", "json")
        assert code == 0
        assert {row["n"] for row in json.loads(out)} == set(range(1, 7))

    def test_allow_large_is_named_with_the_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "--help")
        assert "allow the n=7 census" in " ".join(out.split())


class TestVerifySuiteCaps:
    """A named bijection suite refuses a --max-n above its guard; --suite all
    clamps it, so one --max-n can still reach the census."""

    @pytest.mark.parametrize("suite, max_n, cap", [("roundtrip", "6", 4), ("thm53", "9", 7)])
    def test_named_suite_refuses_max_n_above_its_cap(self, capsys, suite, max_n, cap):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", max_n)
        assert code == 2 and out == ""
        assert err == f"error: --max-n {max_n} is above the {suite} cap of {cap}\n"

    def test_named_suite_without_max_n_stops_below_its_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "thm53")
        rows = out.splitlines()[1:]  # below the header
        assert code == 0
        assert [row.split()[:2] for row in rows] == [["thm53", str(n)] for n in range(1, 7)]
        assert all(row.split()[-1] == "PASS" for row in rows)

    def test_named_suite_runs_to_its_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "thm53", "--max-n", "7", "--format", "json")
        assert code == 0
        assert [row["n"] for row in json.loads(out)] == list(range(1, 8))

    def test_all_clamps_the_bijection_suites(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "5", "--format", "json")
        assert code == 0
        sizes = {}
        for row in json.loads(out):
            sizes.setdefault(row["suite"], set()).add(row["n"])
        assert sizes == {"census": set(range(1, 6)), "roundtrip": set(range(1, 5)), "thm53": set(range(1, 6))}


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["park", "--tree", "0", "--seq", "1", "--bogus"]) == 2

    def test_help_everywhere(self, capsys):
        for command in ("park", "check", "prime", "used-edges", "psi", "psi-inv",
                        "borie", "series", "counts", "verify"):
            assert main([command, "--help"]) == 0
            capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ("series", "--order", "-1"),
            ("series", "--order", "x"),
            ("counts", "--max", "0"),
            ("verify", "--max-n", "-1"),
            ("verify", "--max-n", "0"),
        ],
    )
    def test_sizes_must_be_positive(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"argument {argv[1]}: expected a positive integer" in err

    @pytest.mark.parametrize("argv", [("series", "--order"), ("counts", "--max"), ("verify", "--max-n")])
    def test_a_size_too_long_for_int_is_refused_cut_short(self, capsys, argv):
        # 4401 digits: more than ``int`` converts from text by default
        code, out, err = run(capsys, *argv, "1" + "0" * 4400)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            f"treepark {argv[0]}: error: argument {argv[1]}: "
            "expected a positive integer, got '1000000000'... of 4401 characters"
        )


def test_import_loads_only_the_standard_library():
    # treepark has no runtime dependencies, so no import of it, and no CLI
    # call, pays for loading a third-party package
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import treepark.cli\n"
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "['treepark']\n"
