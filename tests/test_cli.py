import functools
import hashlib
import json
import operator
import os
import subprocess
import sys

import pytest

import chartab
from chartab import cli
from chartab.arith import MR_LIMIT
from chartab.classfuncs import MAX_POWER
from chartab.cli import main

LARGE_PRIME = str(10**18 + 3)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_module(argv, timeout=None):
    """Run `python -m chartab` in a child that imports the same chartab as this process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(chartab.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
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
        assert "X0" in out and "class sizes" in out


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
        def no_table(group, cd):
            raise AssertionError("the table was built")

        monkeypatch.setattr(cli, "compute_table", no_table)
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

    @pytest.mark.parametrize("real", [False, True])
    def test_extra_terms_bounded(self, real):
        argv = ["recover", "--group", "S3", "--extra-terms", "1000000"]
        proc = run_module(argv + ["--real"] * real, timeout=2.0)
        assert proc.returncode == 5
        assert f"at most {MAX_POWER}" in proc.stderr


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


class TestPElements:
    def test_s4_p2(self, capsys):
        code, report = run_json(capsys, ["pelements", "--group", "S4", "-p", "2"])
        assert code == 0
        assert report["verdicts"]["tests_agree"] is True
        assert report["results"]["congruence_test"] == report["results"]["direct_order_test"]


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

    def test_large_prime_field_rejected(self):
        proc = run_module(["blocks", "--group", "S3", "-p", LARGE_PRIME], timeout=2.0)
        assert proc.returncode == 6
        assert "cap" in proc.stderr

    def test_residue_field_above_cap_rejected(self, s5_table):
        # p = 10007 needs GF(10007^4): refused before any search
        proc = run_module(
            ["blocks", "--group", "S5", "-p", "10007", "--table-file", s5_table], timeout=2.0
        )
        assert proc.returncode == 6
        assert "cap" in proc.stderr


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

    def test_malformed_spec_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "bad", "degree": 3, "generators": ["(1 2"]}')
        code = main(["classes", "--spec-file", str(path)])
        capsys.readouterr()
        assert code == 4

    def test_cap_exceeded(self, capsys, tmp_path):
        path = tmp_path / "s4.json"
        path.write_text(
            '{"name": "S4", "degree": 4, "generators": ["(1 2)", "(1 2 3 4)"]}'
        )
        code = main(["classes", "--spec-file", str(path), "--cap", "10"])
        capsys.readouterr()
        assert code == 6

    def test_corrupt_table_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        code = main(["table", "--group", "S3", "--table-file", str(path)])
        capsys.readouterr()
        assert code == 4


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
# `table --spec-file {specs}/S6.json --save` writes it.
@pytest.mark.parametrize(
    "argv, digest",
    [
        ("table --group S5", "55c5fe8ee4be9bad"),
        ("verify --group S4", "65fdde4bf3666f7a"),
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
    ],
)
def test_output_bytes_pinned(capsys, tmp_path, argv, digest):
    if "{tmp}" in argv:
        save = ["table", "--spec-file", os.path.join(BENCH_SPECS, "S6.json")]
        assert main([*save, "--save", str(tmp_path / "S6.json")]) == 0
        capsys.readouterr()
    argv = [word.format(specs=BENCH_SPECS, tmp=tmp_path) for word in argv.split()]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_runtime_is_stdlib_only():
    # -S keeps site-packages off the path and skips .pth start-up imports;
    # the star import loads every module of the lazy package namespace
    code = (
        "import sys; import chartab.cli; from chartab import *; "
        "print(sorted({m.partition('.')[0] for m in sys.modules} "
        "- set(sys.stdlib_module_names) - {'__main__', 'chartab'}))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(chartab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["recover", "gamma -n 4"])
def test_command_imports_only_what_it_runs(tmp_path, command):
    # -S skips site start-up, so every import -X importtime lists is chartab's
    path = tmp_path / "s5.json"
    assert main(["table", "--group", "S5", "--save", str(path)]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(chartab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "chartab", *command.split(),
         "--group", "S5", "--table-file", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    assert "chartab.tables" in imported
    unused = {
        "chartab.blocks", "chartab.reduction", "chartab.finite_field",
        "chartab.verify", "dataclasses", "inspect",
    }
    assert not imported & unused


def test_module_entry_point():
    proc = run_module(["classes", "--group", "C2"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 2
