import functools
import hashlib
import importlib.util
import json
import operator
import os
import re
import shutil
import subprocess
import sys

import pytest

import chartab
from chartab import cli, groups, tables
from chartab.arith import MR_LIMIT, divisors
from chartab import classfuncs, duality
from chartab.classfuncs import MAX_POWER
from chartab.cli import main
from chartab.duality import recover_from_table
from chartab.errors import FormatError, TableIntegrityError
from chartab.groups import MAX_DEGREE, GroupSpec, conjugacy_data, enumerate_group
from chartab.tables import compute_table, save_table

from conftest import ALL_GROUPS, MISTYPED_FIELDS, PSL2_PRIMES, SPEC_GROUPS, psl2_spec

LARGE_PRIME = str(10**18 + 3)
# the directory this process imports chartab from
SRC = os.path.dirname(os.path.dirname(os.path.abspath(chartab.__file__)))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_module(argv, timeout=None):
    """Run `python -m chartab` in a child that imports the same chartab as this process."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "chartab", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=timeout,
    )


class TestClasses:
    def test_s3_sizes(self, capsys):
        code, report = run_json(capsys, ["classes", "--group", "S3"])
        assert code == 0
        assert report["results"]["sizes"] == [1, 2, 3]
        assert report["group"] == "S3"
        assert report["order"] == 6

    def test_report_shape(self, capsys):
        _, report = run_json(capsys, ["classes", "--group", "C4"])
        for key in ("command", "group", "order", "table_provenance", "inputs",
                    "results", "verdicts"):
            assert key in report

    def test_spec_file_source(self, capsys, tmp_path):
        spec = {"name": "C7", "degree": 7, "generators": ["(1 2 3 4 5 6 7)"]}
        path = tmp_path / "c7.json"
        path.write_text(json.dumps(spec))
        code, report = run_json(capsys, ["classes", "--spec-file", str(path)])
        assert code == 0
        assert report["order"] == 7
        assert report["results"]["sizes"] == [1] * 7


# an entry of a saved S3 table, whose exponent is 6, that disagrees with the
# power map: class 1 holds the 3-cycles and class 2 the transpositions
FACTS_OFF_THE_WALKS = {
    "rep-order-zero": ("rep_orders", 1, 0),
    "rep-order-negative": ("rep_orders", 1, -3),
    "rep-order-above-exponent": ("rep_orders", 1, 12),
    "rep-order-not-dividing-exponent": ("rep_orders", 1, 4),
    "inverse-class": ("inverse_class", 2, 1),
}


class TestTable:
    def test_json_report_contains_table(self, capsys):
        code, report = run_json(capsys, ["table", "--group", "S3"])
        assert code == 0
        assert report["results"]["degrees"] == [1, 1, 2]
        assert report["table_provenance"] == "computed (dixon prime 7)"

    def test_save_and_reload(self, capsys, tmp_path):
        path = tmp_path / "s3.json"
        code, _ = run_json(capsys, ["table", "--group", "S3", "--save", str(path)])
        assert code == 0 and path.exists()
        code, report = run_json(
            capsys, ["table", "--group", "S3", "--table-file", str(path)]
        )
        assert code == 0
        assert report["table_provenance"].startswith("file sha256:")

    def test_table_file_for_wrong_group_rejected(self, capsys, tmp_path):
        path = tmp_path / "s3.json"
        run_json(capsys, ["table", "--group", "S3", "--save", str(path)])
        code = main(["table", "--group", "C6", "--table-file", str(path)])
        capsys.readouterr()
        assert code == 4

    def test_table_file_differing_only_in_power_map_rejected(self, capsys, tmp_path):
        # D8 and Q8 share order, exponent, class sizes and inverse classes;
        # only the rep orders and the power map tell them apart
        path = tmp_path / "d8.json"
        run_json(capsys, ["table", "--group", "D8", "--save", str(path)])
        _, q8 = run_json(capsys, ["classes", "--group", "Q8"])
        d8 = json.loads(path.read_text())
        assert (d8["order"], d8["exponent"]) == (q8["order"], q8["results"]["exponent"])
        assert d8["class_sizes"] == q8["results"]["sizes"]
        assert d8["inverse_class"] == q8["results"]["inverse_class"]
        assert d8["rep_orders"] != q8["results"]["representative_orders"]
        code = main(["table", "--group", "Q8", "--table-file", str(path)])
        capsys.readouterr()
        assert code == 4

    @pytest.mark.parametrize("case", sorted(MISTYPED_FIELDS))
    def test_mistyped_field_rejected(self, capsys, tmp_path, case):
        key, value = MISTYPED_FIELDS[case]
        path = tmp_path / "s3.json"
        run_json(capsys, ["table", "--group", "S3", "--save", str(path)])
        data = json.loads(path.read_text())
        data[key] = value
        path.write_text(json.dumps(data))
        code = main(["table", "--group", "S3", "--table-file", str(path)])
        assert "error:" in capsys.readouterr().err
        assert code == 4

    def test_inconsistent_power_map_rejected(self, capsys, tmp_path):
        path = tmp_path / "s4.json"
        run_json(capsys, ["table", "--group", "S4", "--save", str(path)])
        data = json.loads(path.read_text())
        data["rep_orders"] = [3] * len(data["rep_orders"])
        data["power_map"] = [[0] * data["exponent"] for _ in data["power_map"]]
        path.write_text(json.dumps(data))
        code = main(["table", "--group", "S4", "--table-file", str(path)])
        capsys.readouterr()
        assert code == 7

    def test_power_map_with_wrong_squares_rejected(self, capsys, tmp_path):
        path = tmp_path / "s4.json"
        run_json(capsys, ["table", "--group", "S4", "--save", str(path)])
        data = json.loads(path.read_text())
        four_cycles = data["rep_orders"].index(4)
        for t in (2, 6):
            data["power_map"][four_cycles][t] = four_cycles
        path.write_text(json.dumps(data))
        code = main(["table", "--group", "S4", "--table-file", str(path)])
        assert "error: power map of class" in capsys.readouterr().err
        assert code == 7

    @pytest.mark.parametrize("case", sorted(FACTS_OFF_THE_WALKS))
    def test_class_fact_disagreeing_with_the_power_map_rejected(self, capsys, tmp_path, case):
        key, index, value = FACTS_OFF_THE_WALKS[case]
        path = tmp_path / "s3.json"
        run_json(capsys, ["table", "--group", "S3", "--save", str(path)])
        data = json.loads(path.read_text())
        data[key][index] = value
        path.write_text(json.dumps(data))
        code = main(["table", "--group", "S3", "--table-file", str(path)])
        out, err = capsys.readouterr()
        assert code == 7
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_non_integral_value_rejected(self, capsys, tmp_path):
        path = tmp_path / "s3.json"
        run_json(capsys, ["table", "--group", "S3", "--save", str(path)])
        data = json.loads(path.read_text())
        data["rows"][1][1] = {"e": 6, "num": [1, 0], "den": [2, 1]}
        path.write_text(json.dumps(data))
        code = main(["table", "--group", "S3", "--table-file", str(path)])
        capsys.readouterr()
        assert code == 7

    def test_zero_class_size_rejected(self, capsys, tmp_path):
        path = tmp_path / "s3.json"
        run_json(capsys, ["table", "--group", "S3", "--save", str(path)])
        data = json.loads(path.read_text())
        data["class_sizes"] = [1, 0, 5]
        path.write_text(json.dumps(data))
        code = main(["table", "--group", "S3", "--table-file", str(path)])
        assert "positive divisors" in capsys.readouterr().err
        assert code == 7

    def test_galois_action_violation_rejected(self, capsys, tmp_path):
        path = tmp_path / "c5.json"
        run_json(capsys, ["table", "--group", "C5", "--save", str(path)])
        data = json.loads(path.read_text())
        perm = (0, 2, 1, 4, 3)  # the columns permuted by (1 2)(3 4)
        data["rows"] = [[row[perm[i]] for i in range(5)] for row in data["rows"]]
        path.write_text(json.dumps(data))
        code = main(["table", "--group", "C5", "--table-file", str(path)])
        assert "Galois image" in capsys.readouterr().err
        assert code == 7

    def test_human_rendering(self, capsys):
        code = main(["table", "--group", "S3", "--human"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (
            "group: S3  order: 6  source: computed (dixon prime 7)\n"
            "class sizes:  1 2 3\n"
            "rep orders:   1 3 2\n"
            "X0:  1  1  1\n"
            "X1:  1  1 -1\n"
            "X2:  2 -1  0\n"
        )

    def test_trivial_group_round_trip(self, capsys, tmp_path):
        # the one table of exponent 1
        path = tmp_path / "trivial.json"
        assert main(["table", "--group", "trivial", "--save", str(path)]) == 0
        capsys.readouterr()
        for source in ([], ["--group", "trivial"]):
            code, report = run_json(capsys, ["recover", *source, "--table-file", str(path)])
            assert code == 0
            assert report["results"]["recovered_spectrum"] == [[1, 1]]
            assert report["verdicts"]["matches_group"] is True


# (group, path to an entry 1 of its saved table that is rewritten as true)
BOOLEAN_ENTRIES = {
    "order": ("trivial", ("order",)),
    "exponent": ("trivial", ("exponent",)),
    "class_sizes": ("S3", ("class_sizes", 0)),
    "rep_orders": ("S3", ("rep_orders", 0)),
    "inverse_class": ("S3", ("inverse_class", 1)),
    "power_map": ("S3", ("power_map", 1, 1)),
    "e": ("trivial", ("rows", 0, 0, "e")),
    "num": ("S3", ("rows", 0, 0, "num", 0)),
    "den": ("S3", ("rows", 0, 0, "den", 0)),
}


class TestBooleansRejected:
    # JSON true is a Python bool, and bool is a subclass of int
    @pytest.mark.parametrize("entry", sorted(BOOLEAN_ENTRIES))
    def test_table_file(self, capsys, tmp_path, entry):
        group, keys = BOOLEAN_ENTRIES[entry]
        path = tmp_path / "table.json"
        run_json(capsys, ["table", "--group", group, "--save", str(path)])
        data = json.loads(path.read_text())
        *outer, last = keys
        parent = functools.reduce(operator.getitem, outer, data)
        assert parent[last] == 1
        parent[last] = True
        path.write_text(json.dumps(data))
        code = main(["table", "--group", group, "--table-file", str(path)])
        capsys.readouterr()
        assert code == 4

    def test_spec_degree(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        spec = {"name": "C1", "degree": 1, "generators": ["()"]}
        path.write_text(json.dumps(spec))
        assert main(["classes", "--spec-file", str(path)]) == 0
        path.write_text(json.dumps({**spec, "degree": True}))
        code = main(["classes", "--spec-file", str(path)])
        capsys.readouterr()
        assert code == 4


class TestGamma:
    def test_values(self, capsys):
        code, report = run_json(capsys, ["gamma", "--group", "S3", "-n", "2"])
        assert code == 0
        assert report["results"]["gamma"] == [11, 7, 9]
        assert report["results"]["delta"] == [11, 7, 9]

    def test_bad_n(self, capsys):
        code = main(["gamma", "--group", "S3", "-n", "0"])
        capsys.readouterr()
        assert code == 5

    def test_largest_n(self, capsys):
        code, report = run_json(capsys, ["gamma", "--group", "S5", "-n", str(MAX_POWER)])
        assert code == 0
        assert report["results"]["gamma"][0] > 0

    def test_n_checked_before_the_table(self, capsys, monkeypatch):
        def no_table(cd):
            raise AssertionError("the table was built")

        monkeypatch.setattr(tables, "compute_table", no_table)
        for n in (0, MAX_POWER + 1):
            assert main(["gamma", "--group", "S5", "-n", str(n)]) == 5
            assert "n must be" in capsys.readouterr().err

    def test_huge_n_rejected_quickly(self):
        proc = run_module(["gamma", "--group", "S5", "-n", "3000000"], timeout=2.0)
        assert proc.returncode == 5
        assert f"at most {MAX_POWER}" in proc.stderr


class TestRecover:
    def test_round_trip_verdict(self, capsys):
        code, report = run_json(capsys, ["recover", "--group", "S4"])
        assert code == 0
        assert report["verdicts"]["matches_group"] is True
        assert report["results"]["sequence"][0] == 5  # class count

    def test_real_variant(self, capsys):
        code, report = run_json(capsys, ["recover", "--group", "C4", "--real"])
        assert code == 0
        assert report["results"]["recovered_spectrum"] == [[1, 2]]

    def test_default_surplus_is_extra_terms(self, capsys):
        # the default is duality's, read when the command runs, not the parser's
        assert cli._parse(["recover", "--group", "S5"])[1].extra_terms is None
        code, report = run_json(capsys, ["recover", "--group", "S5"])
        assert code == 0
        assert len(report["results"]["sequence"]) == len(divisors(120)) + duality.EXTRA_TERMS == 19

    def test_extra_terms_checked_before_the_table(self, capsys, monkeypatch):
        def no_table(cd):
            raise AssertionError("the table was built")

        monkeypatch.setattr(tables, "compute_table", no_table)
        assert main(["recover", "--group", "S3", "--extra-terms", "-5"]) == 5
        assert "--extra-terms must be at least 0, got -5" in capsys.readouterr().err
        assert main(["recover", "--group", "S3", "--extra-terms", str(MAX_POWER)]) == 5
        assert f"at most {MAX_POWER}" in capsys.readouterr().err

    @pytest.mark.parametrize("real", [False, True])
    def test_extra_terms_bounded(self, real):
        argv = ["recover", "--group", "S3", "--extra-terms", "1000000"]
        proc = run_module(argv + ["--real"] * real, timeout=2.0)
        assert proc.returncode == 5
        assert f"at most {MAX_POWER}" in proc.stderr

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("name", ALL_GROUPS + SPEC_GROUPS)
    def test_prints_recover_from_table(
        self, capsys, tmp_path, table_factory, spec_tables, name, real
    ):
        table = spec_tables[name] if name in SPEC_GROUPS else table_factory(name)
        path = tmp_path / "table.json"
        save_table(table, path)
        code, report = run_json(capsys, ["recover", "--table-file", str(path)] + ["--real"] * real)
        assert code == 0
        sequence, recovered, actual = recover_from_table(table, real)
        assert report["results"] == {
            "real": real,
            "sequence": sequence,
            "recovered_spectrum": [list(pair) for pair in recovered.counts],
            "actual_spectrum": [list(pair) for pair in actual.counts],
        }
        assert report["verdicts"] == {"matches_group": recovered == actual}


class TestDefect:
    def test_s3(self, capsys):
        code, report = run_json(capsys, ["defect", "--group", "S3", "-p", "3", "-n", "2"])
        assert code == 0
        assert report["verdicts"] == {
            "character_side": True, "direct_side": True, "agree": True,
        }

    def test_non_prime_exit_code(self, capsys):
        code = main(["defect", "--group", "S3", "-p", "4", "-n", "2"])
        capsys.readouterr()
        assert code == 5

    def test_large_prime_finishes(self):
        proc = run_module(["defect", "--group", "S3", "-p", LARGE_PRIME], timeout=2.0)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdicts"]["agree"] is True

    @pytest.mark.parametrize("p", [str(10**18 + 1), str(MR_LIMIT)])
    def test_large_non_prime_or_undecided_rejected(self, capsys, p):
        assert main(["defect", "--group", "S3", "-p", p]) == 5
        capsys.readouterr()

    @pytest.mark.parametrize("source", [["--group", "NOPE"], ["--table-file", "{bad}"]])
    @pytest.mark.parametrize("n, message", [
        ("0", "the residue criterion needs n >= 2, got 0"),
        ("1", "the residue criterion needs n >= 2, got 1"),
        (str(MAX_POWER + 1), f"n must be at most {MAX_POWER}, got {MAX_POWER + 1}"),
    ])
    def test_n_checked_before_the_group_or_the_file(self, capsys, tmp_path, source, n, message):
        bad = tmp_path / "bad.json"
        bad.write_text("{bad")
        argv = ["defect", "-p", "3", "-n", n, *(w.format(bad=bad) for w in source)]
        assert main(argv) == 5
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture(scope="module")
def s8_table_file(tmp_path_factory):
    """S8 (order 40,320) saved as a table file: the smallest symmetric group
    with n <= MAX_POWER whose multiplicities could pass 4300 digits."""
    spec = GroupSpec.from_dict(
        {"name": "S8", "degree": 8, "generators": ["(1 2)", "(1 2 3 4 5 6 7 8)"]}
    )
    path = tmp_path_factory.mktemp("s8") / "S8.json"
    save_table(compute_table(conjugacy_data(enumerate_group(spec, cap=200_000))), path)
    return str(path)


class TestPrintableBound:
    # every multiplicity is below |G|^n, and 40320^933 < 10^4300 <= 40320^934
    def test_largest_printable_n(self, capsys, s8_table_file):
        code, report = run_json(capsys, ["gamma", "-n", "933", "--table-file", s8_table_file])
        assert code == 0
        assert max(report["results"]["gamma"]) < 40320 ** 933

    @pytest.mark.parametrize("argv, message", [
        ("gamma -n 934", "n must be at most 933 for order 40320, got 934"),
        ("gamma -n 1000", "n must be at most 933 for order 40320, got 1000"),
        # d(40320) = 96 terms and 900 more
        ("recover --extra-terms 900",
         "sequence length must be at most 933 for order 40320, got 996"),
    ])
    def test_refused_before_any_multiplicity(
        self, capsys, monkeypatch, s8_table_file, argv, message
    ):
        def no_terms(*args):
            raise AssertionError("a multiplicity was computed")

        monkeypatch.setattr(classfuncs, "_multiplicities", no_terms)
        monkeypatch.setattr(duality, "_multiplicities", no_terms)
        assert main([*argv.split(), "--table-file", s8_table_file]) == 5
        assert capsys.readouterr() == (
            "", f"error: {message}: a multiplicity could exceed 4300 digits\n"
        )

    def test_defect_prints_residues_only(self, capsys, s8_table_file):
        argv = ["defect", "-p", "3", "-n", str(MAX_POWER), "--table-file", s8_table_file]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert all(0 <= r < 3 for r in report["results"]["residues_mod_p"])


class TestPElements:
    def test_s4_p2(self, capsys):
        code, report = run_json(capsys, ["pelements", "--group", "S4", "-p", "2"])
        assert code == 0
        assert report["verdicts"]["tests_agree"] is True
        assert report["results"]["congruence_test"] == report["results"]["direct_order_test"]

    def test_m11_p3_finishes(self, tmp_path):
        # M11 at p = 3 once needed GF(3^20), over the old 2^20-element cap
        spec = {"name": "M11", "degree": 11, "generators": [
            "(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)",
        ]}
        path = tmp_path / "m11.json"
        path.write_text(json.dumps(spec))
        proc = run_module(
            ["pelements", "--spec-file", str(path), "-p", "3", "--cap", "8000"], timeout=5.0
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["verdicts"] == {"tests_agree": True}
        assert report["results"]["residue_field"] == {"p": 3, "degree": 20, "order_of_root": 440}


class TestBlocks:
    def test_s3_p3(self, capsys):
        code, report = run_json(capsys, ["blocks", "--group", "S3", "-p", "3"])
        assert code == 0
        assert report["results"]["members"] == [0, 1, 2]
        assert report["verdicts"]["all_characters_in_block"] is True

    @pytest.fixture(scope="class")
    def s5_table(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tables") / "S5.json"
        assert main(["table", "--group", "S5", "--save", str(path)]) == 0
        return str(path)

    def test_s5_p13_finishes(self, s5_table):
        # 13 does not divide |S5|: every character has defect zero, so the
        # principal block is the trivial character alone.  The residue field
        # is GF(13^4); the time-out is the benchmark's limit for this job.
        proc = run_module(
            ["blocks", "--group", "S5", "-p", "13", "--table-file", s5_table], timeout=5.0
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"]["members"] == [0]
        assert report["verdicts"] == {"all_characters_in_block": False}

    def test_large_prime_finishes(self):
        # no residue field is built, so no p is too large for the reduction;
        # p does not divide |S3|, so the trivial character is alone
        proc = run_module(["blocks", "--group", "S3", "-p", LARGE_PRIME], timeout=2.0)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["members"] == [0]

    @pytest.mark.parametrize("command", ["blocks", "pelements"])
    def test_former_field_cap_inputs_finish(self, s5_table, command):
        # p = 10007 once needed GF(10007^4), over the old 2^20-element cap
        proc = run_module(
            [command, "--group", "S5", "-p", "10007", "--table-file", s5_table], timeout=2.0
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        if command == "blocks":
            assert report["results"]["members"] == [0]
        else:
            assert report["verdicts"] == {"tests_agree": True}
            assert report["results"]["p_element_classes"] == [0]


class TestCounterexample:
    def test_s3_p3(self, capsys):
        code, report = run_json(capsys, ["counterexample", "--group", "S3", "-p", "3"])
        assert code == 0
        assert report["results"]["gamma_psi"] == [153, 153, 279]
        assert report["results"]["modulus"] == 9
        assert report["verdicts"]["all_divisible"] is True

    def test_alt_normalizer(self, capsys):
        code, report = run_json(
            capsys, ["counterexample", "--group", "D12", "-p", "3", "--alt-normalizer"]
        )
        assert code == 0
        assert "divisibility" in report["results"]


class TestGroupNameFromCommandLine:
    @pytest.mark.parametrize(
        "argv",
        [
            ["blocks", "-p", "3"],
            ["defect", "-p", "3"],
            ["counterexample", "-p", "3", "--alt-normalizer"],
        ],
    )
    def test_results_name_the_resolved_group(self, capsys, tmp_path, argv):
        path = tmp_path / "s3.json"
        run_json(capsys, ["table", "--group", "S3", "--save", str(path)])
        data = json.loads(path.read_text())
        data["group"] = "not S3"
        path.write_text(json.dumps(data))
        code, report = run_json(
            capsys, [*argv, "--group", "S3", "--table-file", str(path)]
        )
        assert code == 0
        assert report["results"]["group"] == "S3"


class TestErrors:
    def test_unknown_group(self, capsys):
        code = main(["classes", "--group", "M11"])
        err = capsys.readouterr().err
        assert code == 3
        assert "unknown group" in err

    def test_verify_unknown_group(self, capsys):
        assert main(["verify", "--group", "NOPE"]) == 3
        assert capsys.readouterr() == ("", "error: unknown group 'NOPE'\n")

    def test_malformed_spec_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "bad", "degree": 3, "generators": ["(1 2"]}')
        code = main(["classes", "--spec-file", str(path)])
        capsys.readouterr()
        assert code == 4

    def test_non_utf8_files_are_malformed(self, capsys, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\x80\x81")
        assert main(["recover", "--group", "S3", "--table-file", str(path)]) == 4
        assert main(["classes", "--spec-file", str(path)]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("content", [
        "[" * 200_000 + "]" * 200_000,
        '{"name": "S3", "degree": ' + "9" * 5001 + ', "generators": []}',
    ], ids=["nested-200000-deep", "int-of-5001-digits"])
    @pytest.mark.parametrize("option, what", [
        ("--spec-file", "group spec file"), ("--table-file", "table file"),
    ])
    def test_json_past_the_decoder_limits_is_malformed(
        self, capsys, tmp_path, content, option, what
    ):
        path = tmp_path / "limit.json"
        path.write_text(content)
        assert main(["table", option, str(path)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {what} is not valid JSON: ") and err.count("\n") == 1

    def test_spec_degree_above_the_limit(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        spec = {"name": "C2", "degree": MAX_DEGREE + 1, "generators": ["(1 2)"]}
        path.write_text(json.dumps(spec))
        assert main(["classes", "--spec-file", str(path)]) == 4
        assert f"limit of {MAX_DEGREE} points" in capsys.readouterr().err

    def test_cap_exceeded(self, capsys, tmp_path):
        path = tmp_path / "s4.json"
        path.write_text(
            '{"name": "S4", "degree": 4, "generators": ["(1 2)", "(1 2 3 4)"]}'
        )
        code = main(["classes", "--spec-file", str(path), "--cap", "10"])
        capsys.readouterr()
        assert code == 6

    @pytest.mark.parametrize("group", ("trivial", "S3"))
    def test_cap_below_one_rejected(self, capsys, group):
        assert main(["classes", "--group", group, "--cap", "0"]) == 5
        assert "cap must be at least 1, got 0" in capsys.readouterr().err

    def test_corrupt_table_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        code = main(["table", "--group", "S3", "--table-file", str(path)])
        capsys.readouterr()
        assert code == 4

    @pytest.mark.parametrize(
        "argv",
        [
            "recover --table-file {missing}",
            "recover --group S3 --table-file {missing}",
            "classes --spec-file {missing}",
            "table --spec-file {missing}",
            "table --group S3 --save {missing_dir}",
        ],
    )
    def test_unreadable_file_exits_5(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing.json"
        words = argv.format(missing=missing, missing_dir=tmp_path / "nowhere" / "t.json")
        assert main(words.split()) == 5
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: [Errno 2] ")


# the options each command's help must name, besides -h
GROUP_OPTIONS = "--human --group --spec-file --cap"
HELP_OPTIONS = {
    "classes": GROUP_OPTIONS,
    "table": GROUP_OPTIONS + " --table-file --save",
    "gamma": GROUP_OPTIONS + " --table-file -n",
    "recover": GROUP_OPTIONS + " --table-file --real --extra-terms",
    "defect": GROUP_OPTIONS + " --table-file -p -n --real",
    "pelements": GROUP_OPTIONS + " --table-file -p",
    "blocks": GROUP_OPTIONS + " --table-file -p",
    "counterexample": GROUP_OPTIONS + " --table-file -p --alt-normalizer",
    "verify": "--human --group",
}


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            "",
            "frobnicate --group S3",
            "--human classes --group S3",
            "classes --group S3 --table-file t.json",
            "verify --table-file t.json",
            "verify --group S3 --cap 10",
            "table --group S3 --bogus",
            "table --group S3 --h",
            "classes --group S3 S4",
            "recover --group S3 --real=yes",
            "table --group",
            "gamma --group S3 -n",
            "table --group S3 --cap 1.5",
            "gamma --group S3 -n four",
            "gamma --group S3",
            "defect --group S3 -n 2",
            "table --group S3 --spec-file s.json",
            "table",
            "table --cap 10",
            "gamma -n 2 --group S3 --spec-file s.json --table-file t.json",
        ],
    )
    def test_usage_error_exits_2(self, argv):
        proc = run_module(argv.split())
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert any(line.startswith("usage:") for line in lines)
        assert any("error:" in line for line in lines)
        assert proc.stdout == ""

    def test_main_returns_2(self, capsys):
        assert main(["gamma", "--group", "S3"]) == 2
        assert capsys.readouterr().err.startswith("usage: chartab gamma ")

    @pytest.mark.parametrize("command", [None, *HELP_OPTIONS])
    def test_help_names_every_option(self, command):
        proc = run_module([command, "-h"] if command else ["-h"])
        assert proc.returncode == 0
        named = set(re.findall(r"(?<![\w-])(--?[a-z][a-z-]*)", proc.stdout)) - {"--help"}
        if command is None:
            assert named == {"-h"}
            assert all(name in proc.stdout for name in HELP_OPTIONS)
        else:
            assert named == {"-h", *HELP_OPTIONS[command].split()}

    @pytest.mark.parametrize(
        "form, long_form",
        [
            ("gamma --group=S3 -n4", "gamma --group S3 -n 4"),
            ("gamma --gr S3 -n=4", "gamma --group S3 -n 4"),
            ("recover --group S3 --extra 5 --re", "recover --group S3 --extra-terms 5 --real"),
            ("gamma --group S5 -n 2 --group S3 -n 4", "gamma --group S3 -n 4"),
            ("defect -p3 --human --group S3 -n 3", "defect --group S3 -p 3 -n 3 --human"),
            ("classes --cap=10 --gro C2", "classes --group C2 --cap 10"),
        ],
    )
    def test_accepted_forms(self, capsys, form, long_form):
        proc = run_module(form.split())
        assert proc.returncode == 0, proc.stderr
        assert main(long_form.split()) == 0
        assert proc.stdout == capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("recover --group S3 --extra-terms -5", "--extra-terms must be at least 0, got -5"),
            ("recover --group S3 --extra-terms=-5", "--extra-terms must be at least 0, got -5"),
            ("gamma --group S3 -n -1", "n must be at least 1, got -1"),
            ("gamma --group S3 -n-1", "n must be at least 1, got -1"),
            ("classes --group S3 --cap -1", "cap must be at least 1, got -1"),
        ],
    )
    def test_negative_values_reach_their_checks(self, argv, message):
        proc = run_module(argv.split())
        assert proc.returncode == 5
        assert message in proc.stderr


def _int_leaves(node, path=()):
    """The paths to the int leaves of a JSON document."""
    if isinstance(node, dict):
        node = node.items()
    elif isinstance(node, list):
        node = enumerate(node)
    else:
        if type(node) is int:
            yield path
        return
    for key, child in node:
        yield from _int_leaves(child, (*path, key))


def test_every_int_leaf_off_by_one_is_refused(capsys, tmp_path):
    # the values of S4 and D12 are rational, and A5 has (1 + sqrt(5))/2
    saved = tmp_path / "saved.json"
    path = tmp_path / "corrupt.json"
    loaded = []
    for name, count in (("S4", 302), ("D12", 236), ("A5", 592)):
        assert main(["table", "--group", name, "--save", str(saved)]) == 0
        text = saved.read_text()
        leaves = list(_int_leaves(json.loads(text)))
        assert len(leaves) == count
        for *outer, last in leaves:
            for step in (1, -1):
                data = json.loads(text)
                functools.reduce(operator.getitem, outer, data)[last] += step
                path.write_text(json.dumps(data))
                code = main(["recover", "--group", name, "--table-file", str(path)])
                if code not in (4, 7):
                    loaded.append((name, (*outer, last), step, code))
    capsys.readouterr()
    assert loaded == []


def test_every_value_replaced_by_another_of_its_table_is_refused(
    capsys, tmp_path, table_factory, spec_tables
):
    # each value record, at the identity class or not, replaced whole by each
    # other record of the same table; every hundredth file goes through the CLI
    path = tmp_path / "corrupt.json"
    loaded, codes, tried = [], [], 0
    for name in ("C3", "C5", "A4", "A5", "Q8", "D8", "S4", "GL32", "A6"):
        table = spec_tables[name] if name in SPEC_GROUPS else table_factory(name)
        text = json.dumps(tables.table_to_dict(table))
        rows = json.loads(text)["rows"]
        records = sorted({json.dumps(rec) for row in rows for rec in row})
        for r, row in enumerate(rows):
            for i, rec in enumerate(row):
                for other in records:
                    if other == json.dumps(rec):
                        continue
                    data = json.loads(text)
                    data["rows"][r][i] = json.loads(other)
                    tried += 1
                    try:
                        tables.table_from_dict(data)
                        loaded.append((name, r, i, other))
                    except (TableIntegrityError, FormatError):
                        pass
                    if tried % 100 == 0:
                        path.write_text(json.dumps(data))
                        codes.append(main(["recover", "--table-file", str(path)]))
    capsys.readouterr()
    assert loaded == []
    assert tried == 1487
    assert len(codes) == 14 and set(codes) <= {4, 7}


class TestVerify:
    def test_single_group_passes(self, capsys):
        code, report = run_json(capsys, ["verify", "--group", "S3"])
        assert code == 0
        assert report["verdicts"]["all_passed"] is True
        assert all(check["ok"] for check in report["checks"])

    def test_output_reproducible(self, capsys):
        main(["verify", "--group", "C6"])
        first = capsys.readouterr().out
        main(["verify", "--group", "C6"])
        second = capsys.readouterr().out
        assert first == second

    def test_human_lines(self, capsys):
        code = main(["verify", "--group", "C2", "--human"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS C2" in out
        assert "all checks passed" in out


BENCH_SPECS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "specs"
)


# sha256 prefixes of the stdout of these commands; "counterexample --group C2"
# is the only command that evaluates strunkov_analog_gamma on a group with two
# classes, and "classes" the only one that prints representative cycles.
# {specs} is the bench's spec directory, {tmp} holds the S6 table as
# `table --spec-file {specs}/S6.json --save` writes it and the PSL(2,q) spec
# files of `psl2_spec`; the PSL(2,q) tables are the Jordan-Schur groups of
# test_tables, from q = 17 above the default element cap.
@pytest.mark.parametrize(
    "argv, digest",
    [
        ("table --group S5", "55c5fe8ee4be9bad"),
        ("verify --group S4", "65fdde4bf3666f7a"),
        ("verify --group S5", "f37f48274c307fac"),
        ("verify --group A5", "eeed9a593c3276c4"),
        ("gamma --group S5 -n 4", "3b326d6bec11ca1e"),
        ("recover --group C4 --real", "cbc929ec570e75d0"),
        ("counterexample --group C2 -p 2", "301f7d2ebf1a8e92"),
        ("verify", "978b3ea7b7b16501"),
        ("table --spec-file {specs}/S6.json", "f525cb705aef0e1a"),
        ("classes --spec-file {specs}/S6.json", "f962d4347e9ea917"),
        (
            "recover --spec-file {specs}/S6.json --table-file {tmp}/S6.json",
            "1eee872428c5d5a8",
        ),
        ("pelements --group S5 -p 7", "4f99e2c3c1414571"),
        ("blocks --spec-file {specs}/S6.json -p 3", "4376d16d471112a2"),
        ("blocks --group S5 -p 13", "488d968221113260"),
        ("counterexample --group D12 -p 3 --alt-normalizer", "2d353068fafd7d16"),
        ("counterexample --group S5 -p 5", "aadf31345fe1f4fe"),
        ("counterexample --spec-file {specs}/S6.json -p 3", "92644d17d4b333f8"),
        ("counterexample --spec-file {specs}/GL32.json -p 7", "48443a4bbb898f7f"),
        ("blocks --spec-file {specs}/A6.json -p 2", "11a317db21cd49d7"),
        ("blocks --group A5 -p 7", "c02cfe65d63f233c"),
        ("blocks --group C5 -p 7", "654d114cbffd27c4"),
        ("pelements --spec-file {specs}/GL32.json -p 7", "1a9d70b3102edcf8"),
        ("counterexample --group S3 -p 3", "61d29f83ca859644"),
        # the witnesses that fail mod some maximal ideal over 11: 36 pairs,
        # where reduction mod one ideal found 34 (9c865eba4d2b76f9)
        ("blocks --spec-file {specs}/A6.json -p 11", "1aac005e70166df0"),
        ("table --spec-file {tmp}/PSL2_11.json", "9ffbdc3dc4d49bc1"),
        ("table --spec-file {tmp}/PSL2_13.json", "6ef569bca0a15374"),
        ("table --spec-file {tmp}/PSL2_17.json --cap 200000", "3cc323f8d4a41437"),
        ("table --spec-file {tmp}/PSL2_19.json --cap 200000", "292e2e0a1ee33e21"),
        # the layout of every report that `cli` renders, the defect report's included
        ("defect --group S5 -p 3 -n 3", "8603a2ccd857046c"),
        ("defect --group S5 -p 3 -n 3 --real", "bc049ea625330760"),
        ("defect --group S5 -p 3 -n 3 --human", "a33d93e6230f5ca7"),
        ("blocks --group S5 -p 13 --human", "5ddc0d64724fc6ab"),
        ("counterexample --group D12 -p 3 --alt-normalizer --human", "e29c5745a485e626"),
        ("verify --group S3 --human", "fa9c06e392c51b73"),
    ],
)
def test_output_bytes_pinned(capsys, tmp_path, argv, digest):
    if "{tmp}/S6.json" in argv:
        save = ["table", "--spec-file", os.path.join(BENCH_SPECS, "S6.json")]
        assert main([*save, "--save", str(tmp_path / "S6.json")]) == 0
        capsys.readouterr()
    for q in PSL2_PRIMES:
        if f"{{tmp}}/PSL2_{q}.json" in argv:
            (tmp_path / f"PSL2_{q}.json").write_text(json.dumps(psl2_spec(q)))
    argv = [word.format(specs=BENCH_SPECS, tmp=tmp_path) for word in argv.split()]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def _bench_workloads():
    """The job lists of the benchmark, bench/workloads.py."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(os.path.dirname(BENCH_SPECS), "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


# the bench jobs that read a saved table, each naming its group as well
TABLE_JOBS = [
    job.argv for name in ("multiplicity", "congruence") for job in _bench_workloads()[name].jobs
]


@pytest.fixture(scope="module")
def bench_work(tmp_path_factory, table_factory, spec_tables):
    """A work directory laid out as the bench's: the spec files and the saved tables."""
    work = tmp_path_factory.mktemp("work")
    shutil.copytree(BENCH_SPECS, work / "specs")
    (work / "tables").mkdir()
    for name in ("S3", "D12", "C5", "A5", "S5"):
        save_table(table_factory(name), work / "tables" / f"{name}.json")
    for name, table in spec_tables.items():
        save_table(table, work / "tables" / f"{name}.json")
    return work


def _forbid_groups(monkeypatch):
    def enumerated(*args, **kwargs):
        raise AssertionError("a group was looked up or enumerated")

    for module in (cli, groups):
        for name in ("catalog_group", "enumerate_group", "conjugacy_data"):
            monkeypatch.setattr(module, name, enumerated)
    monkeypatch.setattr(groups, "load_catalog", enumerated)


TABLE_COMMANDS = [
    "table", "gamma -n 2", "recover", "defect -p 3", "pelements -p 3", "blocks -p 3",
    "counterexample -p 3",
]


class TestTableOnly:
    @pytest.mark.parametrize("argv", TABLE_JOBS, ids=" ".join)
    def test_prints_what_the_group_form_prints(self, capsys, monkeypatch, bench_work, argv):
        monkeypatch.chdir(bench_work)
        assert main(argv) == 0
        named = capsys.readouterr().out
        i = next(i for i, w in enumerate(argv) if w in ("--group", "--spec-file"))
        _forbid_groups(monkeypatch)
        assert main(argv[:i] + argv[i + 2:]) == 0
        assert capsys.readouterr().out == named

    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_enumerates_no_group(self, capsys, monkeypatch, bench_work, command):
        _forbid_groups(monkeypatch)
        argv = [*command.split(), "--table-file", str(bench_work / "tables" / "S3.json")]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert (report["group"], report["order"]) == ("S3", 6)

    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_cap_below_one_rejected(self, capsys, tmp_path, command):
        # refused as the group form refuses it, before the file is even read
        assert main([*command.split(), "--group", "S3", "--cap", "0"]) == 5
        named = capsys.readouterr().err
        missing = str(tmp_path / "missing.json")
        assert main([*command.split(), "--table-file", missing, "--cap", "0"]) == 5
        assert capsys.readouterr().err == named == "error: cap must be at least 1, got 0\n"

    def test_cap_refused_by_the_groups_rule(self, capsys, tmp_path):
        with pytest.raises(ValueError) as exc:
            groups.check_cap(0)
        missing = str(tmp_path / "missing.json")
        assert main(["recover", "--table-file", missing, "--cap", "0"]) == 5
        assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_runtime_is_stdlib_only():
    # -S keeps site-packages off the path and skips .pth start-up imports;
    # the star import loads every module of the lazy package namespace
    code = (
        "import sys; import chartab.cli; from chartab import *; "
        "print(sorted({m.partition('.')[0] for m in sys.modules} "
        "- set(sys.stdlib_module_names) - {'__main__', 'chartab'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _imports(argv, code=0, python=sys.executable):
    """Modules a `python -m chartab` run imports; -S skips site start-up, so
    every import -X importtime lists is chartab's."""
    proc = subprocess.run(
        [python, "-S", "-X", "importtime", "-m", "chartab", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == code, proc.stderr
    return {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }


# argparse, and what it loads to translate its messages
ARGUMENT_PARSER = {"argparse", "gettext", "locale"}
# importlib.resources and what it loads; the catalog is read through the loader
CATALOG_READER = {"importlib.resources", "zipfile", "pathlib", "tempfile"}


@pytest.mark.parametrize(
    "command",
    [
        "recover", "recover --real", "gamma -n 4", "defect -p 3 -n 3",
        "pelements -p 5", "blocks -p 5", "counterexample -p 5", "table",
        "recover --spec-file S6.json", "recover --table-file",
    ],
)
def test_command_imports_only_what_it_runs(tmp_path, command):
    words = command.split()
    source = ["--group", "S5"]
    if "--spec-file" in words:
        source = [words.pop(-2), os.path.join(BENCH_SPECS, words.pop())]
    path = tmp_path / "table.json"
    assert main(["table", *source, "--save", str(path)]) == 0
    if "--table-file" in words:  # the file alone, with no group to vouch for it
        words.remove("--table-file")
        source = []
    imported = _imports([*words, *source, "--table-file", str(path)])
    assert "chartab.tables" in imported
    # a loaded table needs no Dixon-Schneider split, and size recovery
    # solves on ints
    unused = {
        "chartab.verify", "chartab.dixon", "fractions", "decimal", "dataclasses", "inspect",
        "numbers", "typing", "chartab.finite_field", *ARGUMENT_PARSER,
    }
    if any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")):
        # the provenance digest comes from the builtin module, without OpenSSL
        unused |= {"hashlib", "_hashlib"}
    if command.split()[0] in ("pelements", "blocks", "counterexample"):
        # the congruences reduce mod M and recover nothing
        assert "chartab.reduction" in imported
        unused.add("chartab.duality")
    else:
        unused |= {"chartab.blocks", "chartab.reduction"}
    assert not imported & (unused | CATALOG_READER)


# the table layer and its arithmetic, which only the table commands run
TABLE_LAYER = {"chartab.tables", "chartab.classfuncs", "chartab.cyclo", "chartab.arith"}


@pytest.mark.parametrize(
    "argv, code",
    [
        ("classes --group S3", 0), ("classes --spec-file S6.json", 0),
        ("-h", 0), ("table -h", 0), ("nonsense", 2),
    ],
)
def test_no_table_command_imports_the_table_layer(argv, code):
    words = argv.split()
    if "--spec-file" in words:
        words.append(os.path.join(BENCH_SPECS, words.pop()))
    assert not _imports(words, code) & (TABLE_LAYER | {"typing"})


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_supported_python(tmp_path, version):
    # pyproject.toml promises Python 3.10 and later; each of these found on
    # PATH must print the pinned bytes and digest a table file without OpenSSL
    python = shutil.which(f"python{version}")
    probe = python and subprocess.run([python, "-c", ""], capture_output=True, timeout=60)
    if not probe or probe.returncode:
        pytest.skip(f"python{version} does not start")
    for argv, digest in (("verify", "978b3ea7b7b16501"), ("table --group S5", "55c5fe8ee4be9bad")):
        proc = subprocess.run(
            [python, "-m", "chartab", *argv.split()], capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest()[:16] == digest, argv
    path = tmp_path / "S5.json"
    assert main(["table", "--group", "S5", "--save", str(path)]) == 0
    imported = _imports(["recover", "--table-file", str(path)], python=python)
    assert not imported & {"hashlib", "_hashlib"}


def test_closed_stdout_is_not_an_error():
    # the reader of stdout goes away at once, as `chartab verify | head -0` would
    proc = subprocess.Popen(
        [sys.executable, "-m", "chartab", "verify"], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": SRC},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=30)
    assert proc.returncode == 141
    assert b"error:" not in err and b"Traceback" not in err


@pytest.mark.parametrize("argv", ["classes --group S5", "verify --group S3"])
def test_command_line_parsed_without_argparse(argv):
    assert not _imports(argv.split()) & ARGUMENT_PARSER


@pytest.mark.parametrize("argv", ["classes --group S3", "verify --group S3"])
def test_catalog_read_through_the_loader(argv):
    assert not _imports(argv.split()) & CATALOG_READER


def test_zipped_install_reads_the_catalog(tmp_path):
    archive = shutil.make_archive(str(tmp_path / "chartab"), "zip", SRC, "chartab")
    for argv in (["classes", "--group", "S3"], ["verify", "--group", "S3"]):
        zipped = subprocess.run(
            [sys.executable, "-m", "chartab", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": archive},
        )
        assert zipped.returncode == 0, zipped.stderr
        assert zipped.stdout == run_module(argv).stdout


def test_computing_a_table_imports_the_split():
    assert "chartab.dixon" in _imports(["table", "--group", "S5"])


def test_module_entry_point():
    proc = run_module(["classes", "--group", "C2"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 2
