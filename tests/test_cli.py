import csv
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from dataclasses import fields, is_dataclass
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from anticonc import CenteredSeq, Dist, Extremal, Mixture, bernoulli, cli, delta, extreme_decompose, uniform_on
from anticonc.cli import _dump_witness, build_parser, main
from anticonc.dist import format_fraction
from anticonc.errors import AssertionFailed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_dists(tmp_path, name, *dists):
    path = tmp_path / name
    payload = [d.to_json_obj() for d in dists]
    path.write_text(json.dumps(payload[0] if len(payload) == 1 else payload))
    return str(path)


class TestDistCommands:
    def test_conv_atom_q_round_trip(self, tmp_path, capsys):
        b = bernoulli(F(1, 2))
        path = write_dists(tmp_path, "pair.json", b, b.negate())
        code, out, _ = run(capsys, "dist", "conv", "--in", path)
        assert code == 0
        conv = Dist.from_json_obj(json.loads(out))
        assert conv.atom(0) == F(1, 2)

        single = write_dists(tmp_path, "single.json", conv)
        code, out, _ = run(capsys, "dist", "atom", "--in", single, "--x", "0")
        assert code == 0
        assert json.loads(out) == {"x": [0], "mass": "1/2"}

        code, out, _ = run(capsys, "dist", "q", "--in", single)
        assert code == 0
        assert json.loads(out) == {"value": "1/2", "argmax": [0]}

    def test_output_file_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["family", "ualpha", "--alpha", "2/5", "--out", str(out1)]) == 0
        assert main(["family", "ualpha", "--alpha", "2/5", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        obj = json.loads(out1.read_text())
        assert obj["atoms"] == [[[0], "2/5"], [[1], "2/5"], [[2], "1/5"]]


class TestFamilyCommands:
    def test_tn(self, capsys):
        code, out, _ = run(capsys, "family", "tn", "--n", "4", "--p", "1/2")
        assert code == 0
        assert Dist.from_json_obj(json.loads(out)).atom(0) == F(3, 8)

    def test_binom(self, capsys):
        code, out, _ = run(capsys, "family", "binom", "--n", "2", "--p", "1/3")
        assert code == 0
        assert json.loads(out)["atoms"] == [[[0], "4/9"], [[1], "4/9"], [[2], "1/9"]]


class TestRearrangeCommands:
    def test_left_right_sym(self, capsys):
        code, out, _ = run(capsys, "rearrange", "left", "--values", "1/5,1/2,3/10")
        assert (code, json.loads(out)) == (0, ["3/10", "1/2", "1/5"])
        code, out, _ = run(capsys, "rearrange", "right", "--values", "1/5,1/2,3/10")
        assert (code, json.loads(out)) == (0, ["1/5", "1/2", "3/10"])
        code, out, _ = run(capsys, "rearrange", "sym", "--values", "0,1,0")
        assert (code, json.loads(out)) == (0, ["0/1", "1/1", "0/1"])

    def test_sym_failure_is_input_error(self, capsys):
        code, _, err = run(capsys, "rearrange", "sym", "--values", "1/5,1/2,3/10")
        assert code == 1
        assert "rearrangement" in err


class TestCheckCommands:
    def test_balancing_fixed_instance(self, tmp_path, capsys):
        b = bernoulli(F(1, 3))
        path = write_dists(tmp_path, "pair.json", b, b)
        code, out, _ = run(capsys, "check", "balancing", "--in", path, "--x", "0")
        assert code == 0
        report = json.loads(out)
        assert report == {"index": 0, "lhs": "4/9", "rhs": "5/9", "strict": True, "holds": True}

    def test_theorem2_fixed_instance(self, tmp_path, capsys):
        u = uniform_on([0, 1, 2])
        path = write_dists(tmp_path, "pair.json", u, u)
        code, out, _ = run(capsys, "check", "theorem2", "--in", path, "--alpha", "1/3", "--x", "2")
        assert code == 0
        assert json.loads(out) == {"lhs": "1/3", "rhs": "1/3", "holds": True}

    def test_birnbaum_fixed_instance(self, tmp_path, capsys):
        u = uniform_on([-1, 0, 1])
        path = write_dists(tmp_path, "trip.json", u, u, Dist.from_entries([(0, 1)]))
        code, out, _ = run(capsys, "check", "birnbaum", "--in", path, "--k", "0")
        assert code == 0
        assert json.loads(out) == {"lhs": "1/3", "rhs": "1/3", "holds": True}

    def test_monotone_fixed_instance(self, tmp_path, capsys):
        b = bernoulli(F(1, 2))
        path = write_dists(tmp_path, "chain.json", b, b, b, b)
        code, out, _ = run(capsys, "check", "monotone", "--in", path)
        assert code == 0
        assert json.loads(out)["maxima"] == ["1/2", "1/2", "3/8", "3/8"]

    def test_gabriel_fixed_instance(self, tmp_path, capsys):
        path = tmp_path / "seqs.json"
        path.write_text(json.dumps([["1/5", "1/2", "3/10"], ["1/4", "1/4", "1/2"]]))
        code, out, _ = run(capsys, "check", "gabriel", "--in", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["holds"] is True
        assert F(report["lhs"]) <= F(report["rhs"])

    def test_gabriel_with_a_zero_sequence(self, tmp_path, capsys):
        # a sequence of total 0 makes both zero-sum coefficients 0, with no law to normalize
        path = tmp_path / "seqs.json"
        path.write_text('[["0"], ["1/2"]]')
        code, out, _ = run(capsys, "check", "gabriel", "--in", str(path))
        assert (code, json.loads(out)) == (0, {"lhs": "0/1", "rhs": "0/1", "holds": True})

    def test_trials_mode(self, capsys):
        for sub in ("gabriel", "birnbaum", "balancing", "theorem2", "monotone"):
            code, out, _ = run(capsys, "check", sub, "--trials", "10", "--seed", "3")
            assert code == 0, sub
            report = json.loads(out)
            assert report == {"trials": 10, "seed": 3, "violations": 0, "holds": True}

    def test_a_batch_without_a_seed_reports_seed_0(self, tmp_path, capsys, monkeypatch):
        code, out, _ = run(capsys, "check", "monotone", "--trials", "2")
        assert (code, json.loads(out)["seed"]) == (0, 0)

        def broken(dists):
            raise AssertionFailed("forced", witness={"lhs": F(1), "rhs": F(0)})

        monkeypatch.setattr("anticonc.search.monotonicity_check", broken)
        witness = tmp_path / "w.json"
        assert run(capsys, "check", "monotone", "--trials", "2", "--witness", str(witness))[0] == 2
        assert json.loads(witness.read_text())["witness"]["seed"] == 0

    @pytest.mark.parametrize("alpha", ["1/12", "1/13", "1/20"])
    def test_theorem2_trials_at_small_levels(self, capsys, alpha):
        code, out, _ = run(capsys, "check", "theorem2", "--trials", "2", "--alpha", alpha)
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_missing_inputs_are_usage_errors(self, capsys):
        code, _, err = run(capsys, "check", "balancing")
        assert code == 1
        assert "give --in or --trials" in err


class TestDecompose:
    def test_mixture_output(self, tmp_path, capsys):
        d = Dist.from_entries([(0, "1/2"), (1, "3/10"), (2, "1/5")])
        path = write_dists(tmp_path, "mu.json", d)
        code, out, _ = run(capsys, "decompose", "--in", path, "--alpha", "1/2")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "mixture"
        assert report["p"] == "2/3"
        assert Dist.from_json_obj(report["mu2"]).atoms == (((0,), F(1, 2)), ((1,), F(1, 2)))

    def test_extremal_output(self, tmp_path, capsys):
        path = write_dists(tmp_path, "mu.json", uniform_on([4, 7]))
        code, out, _ = run(capsys, "decompose", "--in", path, "--alpha", "1/2")
        assert code == 0
        assert json.loads(out) == {"kind": "extremal", "alpha": "1/2", "points": [[4], [7]], "rest": None}

    def test_a_law_inside_a_result_is_written_canonically(self):
        result = extreme_decompose(Dist.from_entries([(0, "1/2"), (1, "3/10"), (2, "1/5")]), F(1, 2))
        assert json.loads(cli._dumps(result))["mu1"] == result.mu1.to_json_obj()


class TestAsymCommands:
    def parse_csv(self, text):
        rows = list(csv.reader(io.StringIO(text)))
        return rows[0], rows[1:]

    def test_tnzero_row_shape(self, capsys):
        code, out, _ = run(capsys, "asym", "tnzero", "--n", "20", "--p", "1/2")
        assert code == 0
        header, rows = self.parse_csv(out)
        assert header == ["quantity", "n", "param", "exact", "asym", "residual", "scaled_residual"]
        assert rows[0][0] == "alternating_zero"
        assert rows[0][3] == "46189/262144"

    def test_largeodd_emits_two_rows(self, capsys):
        code, out, _ = run(capsys, "asym", "largeodd", "--m", "5", "--p", "1/3")
        assert code == 0
        _, rows = self.parse_csv(out)
        assert [r[0] for r in rows] == ["odd_tail_double_pair", "odd_tail_triple"]
        assert all(r[1] == "8" for r in rows)

    def test_corollary2_reports_exact_and_bound(self, capsys):
        code, out, _ = run(capsys, "asym", "corollary2", "--n", "8", "--alpha", "1/2")
        assert code == 0
        _, rows = self.parse_csv(out)
        assert rows[0][2] == "1/2"
        assert F(rows[0][3]) <= F(1)

    def test_smalldev_json_format(self, capsys):
        code, out, _ = run(capsys, "asym", "smalldev", "--n", "10", "--p", "1/2", "--k", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["exact"] == "10/11"

    def test_wagner_param_column(self, capsys):
        code, out, _ = run(capsys, "asym", "wagner", "--n", "20", "--b", "2", "--c", "1")
        assert code == 0
        _, rows = self.parse_csv(out)
        assert rows[0][2] == "b=2/1;c=1/1"
        assert float(rows[0][5]) < 1e-3

    def test_wagner_past_the_float_range_is_input_error(self, capsys):
        code, _, err = run(capsys, "asym", "wagner", "--n", "520", "--b", "2", "--c", "1")
        assert code == 1
        assert "exceeds the float range" in err

    # Recorded from the n-fold product of n separate summands.  The corollary2
    # floats come from sqrt and correctly rounded conversions only, so whole
    # rows are pinned; wagner's asym column uses pow and is left out.
    @pytest.mark.parametrize("n, alpha, row", [
        (7, "1/3", "local_limit_bound,7,1/3,119/729,0.1846743909223718,0.02143707953691229,0.1160804128273714"),
        (32, "1/3", "local_limit_bound,32,1/3,53038164023921/617673396283947,0.08637353736783387,"
                    "0.0005058857205235967,0.005856952672543804"),
        (95, "1/2", "local_limit_bound,95,1/2,1608766753466574727105400775/19807040628566084398385987584,"
                    "0.08186122868467108,0.0006392640492080132,0.0078091186692353974"),
    ])
    def test_corollary2_golden_rows(self, capsys, n, alpha, row):
        code, out, _ = run(capsys, "asym", "corollary2", "--n", str(n), "--alpha", alpha)
        assert code == 0
        assert out == f"quantity,n,param,exact,asym,residual,scaled_residual\n{row}\n"

    @pytest.mark.parametrize("n", [1300, 1433])
    def test_wagner_prints_every_row_within_the_digit_limit(self, capsys, n):
        # 1,433 is the last n whose exact value for these coefficients converts to a string under the default
        # limit of 4,300 digits (n = 1,434 is refused); the exact column is the Fraction sum of the terms
        b, c = F(1, 1000), F(1, 4)
        code, out, _ = run(capsys, "asym", "wagner", "--n", str(n), "--b", "1/1000", "--c", "1/4")
        assert code == 0
        _, rows = self.parse_csv(out)
        exact = sum(math.comb(n, 2 * i) * math.comb(2 * i, i) * b ** (n - 2 * i) * c**i for i in range(n // 2 + 1))
        assert rows[0][:4] == ["middle_coefficient", str(n), "b=1/1000;c=1/4", f"{exact.numerator}/{exact.denominator}"]

    def test_wagner_golden_exact(self, capsys):
        code, out, _ = run(capsys, "asym", "wagner", "--n", "131", "--b", "3/2", "--c", "2")
        assert code == 0
        _, rows = self.parse_csv(out)
        assert rows[0][3] == (
            "26805961160896336682714847273388613239649604896081467688261104718350701156428061655533736747853659"
            "149396505297586264787627/2722258935367507707706996859454145691648"
        )


class TestCommandTable:
    @pytest.mark.parametrize("path", cli.COMMANDS)
    def test_parser_builds_and_takes_format_only_for_rows(self, capsys, path):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*path, "--help"])
        assert exc.value.code == 0
        assert ("--format" in capsys.readouterr().out) == cli.COMMANDS[path].rows

    def test_format_is_on_the_asym_commands_and_kphase(self):
        rows = sorted(path for path, command in cli.COMMANDS.items() if command.rows)
        assert rows == [("asym", name) for name in ("corollary2", "largeodd", "smalldev", "tnzero", "wagner")] + [
            ("scan", "kphase")]


def _usage_errors(path):
    """Argv that every leaf refuses while parsing: unknown flag, bad int, bad --format choice, trailing
    word, an abbreviation of --trials given a bad int, a flag without its value, and, for a leaf with a
    required flag, none of its flags."""
    argvs = [["--bogus"], ["--n", "x"], ["--format", "xml"], ["extra"], ["--tri", "x"], ["--out"]]
    if any(spec.get("required") for _, spec in cli.COMMANDS[path].flags):
        argvs.append([])
    return [[*path, *argv] for argv in argvs]


class TestParseRoutes:
    """main parses a leaf's argv with that leaf's parser alone; help and errors match the whole tree."""

    @pytest.mark.parametrize("path", cli.COMMANDS)
    def test_leaf_help_matches_the_tree(self, capsys, path):
        outs = []
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse([*path, "--help"])
            assert exc.value.code == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]
        assert outs[0].out.startswith(f"usage: anticonc {' '.join(path)} [-h]")

    @pytest.mark.parametrize("path", cli.COMMANDS)
    def test_leaf_usage_errors_match_the_tree(self, capsys, path):
        for argv in _usage_errors(path):
            with pytest.raises(cli.UsageError) as exc:
                build_parser().parse_args(argv)
            assert run(capsys, *argv) == (1, "", f"error: {exc.value}\n"), argv

    def test_a_leaf_run_never_builds_the_tree(self, tmp_path, capsys, monkeypatch):
        law = write_dists(tmp_path, "law.json", bernoulli(F(1, 3)))
        leaf_runs = [["dist", "q", "--in", law], ["asym", "tnzero", "--n", "8", "--p", "1/2"],
                     ["check", "monotone", "--trials", "1"]]
        expected = [run(capsys, *argv) for argv in leaf_runs]

        class TreeBuilt(Exception):
            pass

        def no_tree():
            raise TreeBuilt

        monkeypatch.setattr(cli, "build_parser", no_tree)
        assert [run(capsys, *argv) for argv in leaf_runs] == expected
        assert [code for code, _, _ in expected] == [0, 0, 0]
        for argv in (["--help"], ["dist"], ["nope"]):
            with pytest.raises(TreeBuilt):
                main(argv)


class TestScanCommands:
    def test_kphase_csv(self, capsys):
        code, out, _ = run(capsys, "scan", "kphase", "--n", "3", "--grid", "4")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "p_num", "p_den", "best_k_set", "best_value"]
        assert rows[-1] == ["3", "1", "2", "0;1", "3/8"]
        ps = [F(int(r[1]), int(r[2])) for r in rows[1:]]
        assert ps == sorted(ps)

    def test_kphase_json(self, capsys):
        code, out, _ = run(capsys, "scan", "kphase", "--n", "3", "--grid", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3
        assert payload["cells"][-1]["best_ks"] == [0, 1]

    def test_signs(self, tmp_path, capsys):
        path = write_dists(tmp_path, "u.json", uniform_on([0, 1, 2]))
        code, out, _ = run(capsys, "scan", "signs", "--in", path, "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "7/27"
        assert payload["signs"] == [-1, -1, -1]

    def test_weights(self, tmp_path, capsys):
        path = write_dists(tmp_path, "u.json", uniform_on([0, 1, 2]))
        code, out, _ = run(capsys, "scan", "weights", "--in", path, "--n", "3", "--grid-values=-2,-1,1,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["exceeds_signs"] is False
        assert payload["value"] == payload["sign_value"] == "7/27"

    def test_weights_on_a_spread_law_is_refused_by_its_predicted_atoms(self, tmp_path, capsys):
        # 792 sorted tuples pass the tuple cap, but the laws of their 787 orbits keep this
        # law's atoms apart, so one of them would pass the atom cap
        spread = uniform_on([0, 1, 100, 10000])
        path = write_dists(tmp_path, "spread.json", spread)
        start = time.perf_counter()
        code, _, err = run(capsys, "scan", "weights", "--in", path, "--n", "7", "--grid-values=1,2,3,5,7,11")
        assert time.perf_counter() - start < 1
        assert code == 1
        assert err == "error: 787 weight orbits and 4 sign laws of 7 summands predict 5120 atoms, above the cap 4096\n"


class TestErrorPaths:
    def test_bad_rational_is_usage_error(self, capsys):
        code, _, err = run(capsys, "family", "ualpha", "--alpha", "zero")
        assert code == 1
        assert "not a rational" in err

    def test_domain_error_is_input_error(self, capsys):
        code, _, err = run(capsys, "family", "binom", "--n", "3", "--p", "7/5")
        assert code == 1
        assert "success mass" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "dist", "q", "--in", "/nonexistent/d.json")
        assert code == 1
        assert "error" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "family", "ualpha", "--alpha", "1/2", "--bogus")
        assert code == 1

    def test_witness_dump(self, tmp_path):
        args = build_parser().parse_args(
            ["check", "balancing", "--trials", "1", "--witness", str(tmp_path / "w.json")]
        )
        failure = AssertionFailed("synthetic", witness={"lhs": F(2, 3), "x": (0,)})
        path = _dump_witness(args, failure)
        payload = json.loads((tmp_path / "w.json").read_text())
        assert path == str(tmp_path / "w.json")
        assert payload == {"error": "synthetic", "witness": {"lhs": "2/3", "x": [0]}}

    def test_violation_exit_code_and_witness(self, tmp_path, capsys, monkeypatch):
        # force a fake violation to exercise the exit-2 path end to end
        import anticonc.cli as cli

        def broken(dists, x):
            raise AssertionFailed("forced", witness={"x": list(x)})

        monkeypatch.setattr(cli, "balancing_bound", broken)
        b = bernoulli(F(1, 2))
        path = write_dists(tmp_path, "pair.json", b, b)
        witness = tmp_path / "w.json"
        code, _, err = run(
            capsys, "check", "balancing", "--in", path, "--x", "0", "--witness", str(witness)
        )
        assert code == 2
        assert "violated" in err
        assert json.loads(witness.read_text())["error"] == "forced"

    def test_unwritable_witness_still_reports_the_violation(self, tmp_path, capsys, monkeypatch):
        def broken(dists):
            raise AssertionFailed("forced", witness={"lhs": F(1), "rhs": F(0)})

        monkeypatch.setattr("anticonc.search.monotonicity_check", broken)
        witness = tmp_path / "no" / "such" / "w.json"
        code, _, err = run(capsys, "check", "monotone", "--trials", "1", "--witness", str(witness))
        assert code == 2
        assert err.startswith("violated: forced (witness not written: [Errno 2] No such file or directory: ")
        assert "Traceback" not in err
        assert not witness.parent.exists()


PAIR = '{"dim":1,"atoms":[[[0],"1/2"],[[1],"1/2"]]}'
TINY = '{"dim":1,"atoms":[[[0],"%s/1%s"],[[1],"1/1%s"]]}' % ("9" * 300, "0" * 300, "0" * 300)

# Commands over a work cap: each is refused before the work starts
TOO_LARGE = [
    (None, "asym corollary2 --n 100000 --alpha 1/3"),
    (None, "asym tnzero --n 5000 --p 1/3"),
    (None, "family tn --n 20000 --p 1/3"),
    (None, "family binom --n 200000 --p 1/3"),
    # b^n must print: 4,501 digits at n = 15
    (None, "family binom --n 15 --p 1/1" + "0" * 300),
    (None, "family binom --n 1024 --p 1/1" + "0" * 300),
    # one product of two 1,025-atom binomials, its numerators of 2,378 and 2,875 bits
    (None, "family tn --n 2048 --p 2/5"),
    (None, "family tn --n 2048 --p 1/7"),
    (None, "scan kphase --n 1001 --grid 512"),
    (None, "scan kphase --n 3 --grid 100000000"),
    (None, "scan kphase --n 3001 --grid 1"),
    # a flat law of 10^7 or 10^5 atoms, refused before its points are built
    (None, "family ualpha --alpha 1/10000000"),
    (None, "family ualpha --alpha 1/100000"),
    (None, "asym corollary2 --n 2 --alpha 1/10000000"),
    (None, "check theorem2 --trials 1 --alpha 1/10000000"),
]

MALFORMED = [
    # (text of the --in file or None, command line; {in} is that file)
    ('{"dim":1,"atoms":[[[0],"0.5"],[[1],"1/2"]]}', "dist q --in {in}"),
    ('{"dim":1,"atoms":[[[0],0.5],[[1],"1/2"]]}', "dist q --in {in}"),
    ('{"dim":1,"atoms":[[[0],true]]}', "dist q --in {in}"),
    ('{"dim":1,"atoms":[[[0.7],"1/2"],[[1],"1/2"]]}', "dist q --in {in}"),
    ('{"dim":1,"atoms":[[[true],"1/2"],[[0],"1/2"]]}', "dist q --in {in}"),
    ('{"dim":1,"atoms":[[[0],"1/0"],[[1],"1/2"]]}', "dist q --in {in}"),
    ("[1,2]", "dist q --in {in}"),
    ('{"dim":1}', "dist q --in {in}"),
    ('{"dim":1,"atoms":[[0,"1/2"],[1,"1/2"]]}', "dist q --in {in}"),
    ('[["1/5","1/2","3/10"]]', "check monotone --in {in}"),
    ("[1,2]", "check gabriel --in {in}"),
    (None, "family ualpha --alpha 0.25"),
    (None, "family binom --n 2 --p 1e-1"),
    (None, "rearrange left --values 1/2,0.25,1/4"),
    (None, "check theorem2 --trials 1 --alpha 0"),
    (None, "check gabriel --trials -2"),
    (None, "check monotone --trials 0"),
    *TOO_LARGE,
    ('{"dim":1,"atoms":[[[0],"1/2"],[[1],"1/2"]]}', "scan weights --in {in} --n 2 --cap 100"),
    ('[["1/5","1/2","3/10"],["1/4","1/2","1/4"],["1/4","1/2","1/4"]]', "check gabriel --in {in} --star-from 3"),
    # --format is taken only by the commands that emit rows
    (None, "family binom --n 3 --p 1/3 --format csv"),
    ('{"dim":1,"atoms":[[[0],"1/2"],[[1],"1/2"]]}', "dist q --in {in} --format json"),
    # an integer is [-]digits in ASCII, in a flag and in --x alike; int() would read each of these
    (None, "asym tnzero --n +4 --p 1/2"),
    (None, "asym tnzero --n 1_0 --p 1/2"),
    (None, "asym tnzero --n ' 4' --p 1/2"),
    (None, "asym tnzero --n ٤ --p 1/2"),
    (None, "asym smalldev --n 4 --k +1 --p 1/3"),
    (None, "asym largeodd --m 1_0 --p 1/3"),
    (None, "scan kphase --n 3 --grid ' 4'"),
    (None, "check monotone --trials ٤"),
    (None, "check monotone --trials 1 --seed +0"),
    (PAIR, "dist atom --in {in} --x +1"),
    (PAIR, "dist atom --in {in} --x 1_0"),
    (PAIR, "dist atom --in {in} --x ' 1'"),
    (PAIR, "dist atom --in {in} --x ١"),
]

# Rows whose guard the rows above never reach, each with its message, which
# tells it from the error that follows if the guard is gone.
GUARDED = [
    (PAIR, "dist atom --in {in} --x 1,a", "not a lattice point: '1,a'"),
    (PAIR, "dist atom --in {in} --x ' +10'", "error: not a lattice point: ' +10'\n"),
    (None, "asym tnzero --n ٤ --p 1/2", "error: argument --n: invalid int value: '٤'\n"),
    ("{", "dist q --in {in}", "invalid JSON"),
    pytest.param("[" * 100000, "dist q --in {in}", "invalid JSON", id="nested-100000-deep"),
    # a command of one law or one sequence reads a file that holds exactly one
    ("[]", "dist q --in {in}", "error: need exactly 1 distribution, got 0\n"),
    (f"[{PAIR},{PAIR}]", "dist q --in {in}", "error: need exactly 1 distribution, got 2\n"),
    (f"[{PAIR},{PAIR}]", "scan signs --in {in} --n 2", "error: need exactly 1 distribution, got 2\n"),
    ("[]", "rearrange left --in {in}", "error: need exactly 1 sequence, got 0\n"),
    ('[["1"],["1"]]', "rearrange left --in {in}", "error: need exactly 1 sequence, got 2\n"),
    (None, "rearrange left", "give --values or --in"),
    (None, "asym wagner --n 5 --b 1 --c=-1", "coefficients must be positive"),
    (None, "asym wagner --n 5 --b 1 --c 1/1" + "0" * 400, "a positive coefficient is below the float range"),
    # the exact value would exceed the interpreter's digit limit for int-to-str conversion
    (None, "asym wagner --n 8000 --b 1/1000 --c 1/4",
     "4001 terms of the central coefficient at n = 8000 predict 24004 digits, above the cap"),
    (None, "asym wagner --n 1434 --b 1/1000 --c 1/4",
     "718 terms of the central coefficient at n = 1434 predict 4303 digits, above the cap"),
    # a search value over Bernoulli(1/10^300) at n = 15 has a denominator of up to 4,501 digits
    (TINY, "scan signs --in {in} --n 15", "exact values of 15 summands predict 4501 digits, above the cap 4300"),
    (TINY, "scan weights --in {in} --n 15 --grid-values=-1,1",
     "exact values of 15 summands predict 4501 digits, above the cap 4300"),
    # the central coefficient and its expansion both underflow a float; the residual divided by 0.0
    (None, "asym wagner --n 379 --b 6520/8330001 --c 22/53907780", "the expansion at n = 379 is below the float range"),
    ('[{"dim":1,"atoms":[[[0],"1/1"]]},{"dim":2,"atoms":[[[0,0],"1/1"]]}]', "check monotone --in {in}",
     "distributions must share one dimension"),
    # a fixed instance needs every flag of its check, and the message names the missing ones
    (f"[{PAIR},{PAIR}]", "check birnbaum --in {in}", "error: give --k\n"),
    (f"[{PAIR},{PAIR}]", "check balancing --in {in}", "error: give --x\n"),
    (f"[{PAIR},{PAIR}]", "check theorem2 --in {in} --x 0", "error: give --alpha\n"),
    (f"[{PAIR},{PAIR}]", "check theorem2 --in {in}", "error: give --alpha and --x\n"),
    (f"[{PAIR},{PAIR}]", "check birnbaum --in {in} --k 0", "need exactly 3 distributions (X, Y, Y'), got 2"),
    ("[]", "check monotone --in {in}", "need at least one distribution"),
    # a fixed instance and a seeded batch are exclusive; the file is not read, so it need not exist
    (None, "check balancing --in {in} --trials 2", "error: give --in or --trials, not both\n"),
    # a mode refuses the flags it does not read: a batch draws its instances, a fixed instance has no seed
    (None, "check balancing --trials 2 --x 5,5,5", "error: --trials does not read --x\n"),
    (None, "check birnbaum --trials 2 --k -7", "error: --trials does not read --k\n"),
    (None, "check theorem2 --trials 2 --x 0", "error: --trials does not read --x\n"),
    (None, "check theorem2 --trials 2 --alpha 1/3 --x 0", "error: --trials does not read --x\n"),
    (f"[{PAIR},{PAIR}]", "check balancing --in {in} --x 0 --seed 9", "error: --in does not read --seed\n"),
    (f"[{PAIR}]", "rearrange left --values 1,2,3 --in {in}", "error: give --values or --in, not both\n"),
]


def _run_malformed(tmp_path, capsys, text, command):
    path = tmp_path / "in.json"
    if text is not None:
        path.write_text(text)
    code, _, err = run(capsys, *shlex.split(command.format(**{"in": path})))
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("text, command", MALFORMED)
def test_malformed_input_exits_1_without_traceback(tmp_path, capsys, text, command):
    _run_malformed(tmp_path, capsys, text, command)


@pytest.mark.parametrize("text, command, message", GUARDED)
def test_guard_names_the_fault(tmp_path, capsys, text, command, message):
    assert message in _run_malformed(tmp_path, capsys, text, command)


SPREAD = json.dumps(uniform_on([0, 1, 100, 10000]).to_json_obj())
EIGHT = json.dumps(uniform_on([0, 1, 7, 50, 333, 2000, 15000, 99999]).to_json_obj())
SPREAD24 = json.dumps([uniform_on([0, 3**i]).to_json_obj() for i in range(24)])    # 2^24 atoms, none merged
POINT = json.dumps(delta(0).to_json_obj())
WIDE3 = json.dumps([uniform_on(range(3000)).to_json_obj()] * 3)    # 5,999 atoms in the sum of the first two
WIDE_PEAKED = json.dumps([uniform_on(range(-r, r + 1)).to_json_obj() for r in (1500, 1500, 1000)])
WIDER_PEAKED = json.dumps([uniform_on(range(-r, r + 1)).to_json_obj() for r in (3000, 3000, 2000)])
# one law on 0..99 and 255 point masses: the alternating bound forms the power of 128 copies of the first law
SPREAD_BALANCING = json.dumps([uniform_on(range(100)).to_json_obj()] + [delta(0).to_json_obj()] * 255)
# the largest such input whose alternating bound is admitted: 72 laws, the power of 36 copies of the first
ADMITTED_BALANCING = json.dumps([uniform_on(range(100)).to_json_obj()] + [delta(0).to_json_obj()] * 71)
# 40 laws uniform on i..i + 65: each power of 20 copies fits the caps alone, and all 40 share one plan
MANY_BALANCING = json.dumps([uniform_on(range(i, i + 66)).to_json_obj() for i in range(40)])
# 2,000 two-atom laws of denominators 2..2,001, whose product has 5,739 digits
LONG_DENOMINATORS = json.dumps([Dist.from_entries([(0, F(1, d)), (1, F(d - 1, d))]).to_json_obj()
                                for d in range(2, 2002)])
# 5 summands of a flat law of 819 atoms over a denominator of 2,001 bits: the half sum of 2 copies fits the caps, and
# its product with one more copy is priced with it
LONG_FLAT = f"{(2**2000 + 1) // 819 + 1}/{2**2000 + 1}"
# two atoms 2 * 10^7 apart: not unimodal, read from the atoms alone
FAR = json.dumps([law.to_json_obj() for law in (uniform_on([-10**7, 10**7]), uniform_on([-1, 0, 1]), delta(0))])
# two laws over 10^3000 and 10^3000 + 2, near 1/2 each: their hit has a denominator of up to 6,000 digits
HIT_DIGITS = json.dumps([Dist.from_entries([(0, F(d // 2 + 1, d)), (1, F(d - d // 2 - 1, d))]).to_json_obj()
                         for d in (10**3000, 10**3000 + 2)])
# a law of mass 10^-600 at 1 and seven uniform on {0, 1}: the zero mass of 8 alternating copies of the first divides
# (10^600)^8, of 4,801 digits
ZERO_DIGITS = json.dumps([Dist.from_entries([(0, 1 - F(1, 10**600)), (1, F(1, 10**600))]).to_json_obj()]
                         + [uniform_on([0, 1]).to_json_obj()] * 7)


@pytest.mark.parametrize("text, command", TOO_LARGE + [
    (SPREAD, "scan weights --in {in} --n 8 --grid-values=1,2,3,5,7,11"),
    (EIGHT, "scan signs --in {in} --n 24"),
    (TINY, "scan signs --in {in} --n 15"),
    (SPREAD24, "dist conv --in {in}"),
    (LONG_DENOMINATORS, "dist conv --in {in}"),
    (None, f"asym corollary2 --n 5 --alpha {LONG_FLAT}"),
    (HIT_DIGITS, "check theorem2 --in {in} --alpha 99/100 --x 1"),
    (ZERO_DIGITS, "check balancing --in {in} --x 0"),
])
def test_every_size_refusal_has_one_shape(tmp_path, capsys, text, command):
    # one gate raises every cap refusal; the sign search on 8 spread atoms predicts 1.4e10 steps, hours of work
    start = time.perf_counter()
    err = _run_malformed(tmp_path, capsys, text, command)
    assert time.perf_counter() - start < 1
    assert re.fullmatch(r"error: .+ predict \d+ (atoms|steps|digits), above the cap \d+\n", err)


@pytest.mark.parametrize("text, command", [
    (SPREAD24, "check monotone --in {in}"),
    (WIDE3, "check monotone --in {in}"),
    (WIDE_PEAKED, "check birnbaum --in {in} --k 3"),
    (WIDER_PEAKED, "check birnbaum --in {in} --k 3"),
    (SPREAD_BALANCING, "check balancing --in {in} --x 0"),
    (MANY_BALANCING, "check balancing --in {in} --x 0"),
], ids=["monotone-spread", "monotone-wide", "birnbaum-wide", "birnbaum-wider", "balancing-power", "balancing-laws"])
def test_a_check_of_given_laws_is_refused_by_the_sums_it_forms(tmp_path, capsys, text, command):
    # the prefix sums of `check monotone` and the two sums of `check birnbaum` pass the gate of every sum of given laws
    test_every_size_refusal_has_one_shape(tmp_path, capsys, text, command)


def _digit_cap_runs():
    # den^n, which every exact value of n summands divides, prints up to n = 4299 // e at den = 10^e; one run on each
    # side of that n for every command that reads an alternating sum of n summands
    for e in (100, 300):
        p, alpha, last = "1/1" + "0" * e, f"{10**e - 1}/{10**e}", 4299 // e
        runs = [(n, f"family tn --n {n} --p P") for n in (last, last + 1)]
        runs += [(n, f"asym tnzero --n {n} --p P") for n in (last, last + 1)]
        runs += [(n, f"asym corollary2 --n {n} --alpha A") for n in (last, last + 1)]
        runs += [(2 * h, f"asym smalldev --n {h} --k 1 --p P") for h in (last // 2, last // 2 + 1)]
        runs += [(2 * m + 1, f"asym largeodd --m {m} --p P") for m in ((last - 1) // 2, (last + 1) // 2)]
        for n, command in runs:
            yield pytest.param(n <= last, command.replace("P", p).replace("A", alpha),
                               id=command.replace("P", f"1/10^{e}").replace("A", f"1-1/10^{e}"))


@pytest.mark.parametrize("admitted, command", _digit_cap_runs())
def test_exact_values_are_refused_by_their_digits_before_they_print(capsys, admitted, command):
    code, _, err = run(capsys, *command.split())
    assert code == (0 if admitted else 1)
    assert not admitted or err == ""
    assert admitted or re.fullmatch(r"error: exact values of \d+ summands predict \d+ digits, above the cap 4300\n", err)


@pytest.mark.parametrize("text, command, message", [
    # the chain's 40 steps per convolution are summed before any law is counted
    (POINT, "scan signs --in {in} --n 1000000000",
     "500000001 sign laws of 1000000000 summands predict 39999999960 steps, above the cap 5000000"),
    (FAR, "check birnbaum --in {in} --k 0", "X is not unimodal"),
    # a target of the wrong dimension, before the plan and the powers it would price and form
    (PAIR, "scan signs --in {in} --n 760 --x 1,2", "point (1, 2) has dim 2, expected 1"),
    (ADMITTED_BALANCING, "check balancing --in {in} --x 0,0", "point (0, 0) has dim 2, expected 1"),
], ids=["search-chain", "birnbaum-far-atoms", "signs-target-dim", "balancing-target-dim"])
def test_an_input_refused_before_any_work_is_refused_at_once(tmp_path, capsys, text, command, message):
    start = time.perf_counter()
    err = _run_malformed(tmp_path, capsys, text, command)
    assert time.perf_counter() - start < 0.05
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("sub, checker, instance_keys", [
    ("gabriel", "anticonc.cli.gabriel_sides", ("seqs",)),
    ("birnbaum", "anticonc.cli.birnbaum_sides", ("X", "Y", "Yp")),
    ("balancing", "anticonc.cli.balancing_bound", ("dists",)),
    ("theorem2", "anticonc.search.quasi_uniform_bound_check", ("alpha", "dists")),
    ("monotone", "anticonc.search.monotonicity_check", ("dists",)),
])
def test_trial_witness_can_be_replayed(tmp_path, capsys, monkeypatch, sub, checker, instance_keys):
    def broken(*args, **kwargs):
        raise AssertionFailed("forced", witness={"lhs": F(1), "rhs": F(0)})

    monkeypatch.setattr(checker, broken)
    witness = tmp_path / "w.json"
    argv = ["check", sub, "--trials", "3", "--seed", "5", "--witness", str(witness)]
    code, _, _ = run(capsys, *argv)
    assert code == 2
    payload = json.loads(witness.read_text())["witness"]
    assert (payload["seed"], payload["trial"]) == (5, 0)
    # the first draw from the recorded seed regenerates the recorded instance
    instance = cli.CHECKS[sub].draw(build_parser().parse_args(argv), random.Random(payload["seed"]))
    assert sorted(instance) == sorted(instance_keys)
    assert {key: payload[key] for key in instance_keys} == json.loads(cli._dumps(instance))


@pytest.mark.parametrize("sub, flags, checker", [
    ("balancing", ["--x", "0"], "anticonc.reduction.require_bound"),
    ("theorem2", ["--alpha", "1/2", "--x", "0"], "anticonc.search.require_bound"),
    ("monotone", [], "anticonc.search.require_bound"),
])
def test_fixed_instance_witness_holds_the_input_laws(tmp_path, capsys, monkeypatch, sub, flags, checker):
    def always(message, lhs, rhs, **witness):
        raise AssertionFailed(message, witness={**witness, "lhs": lhs, "rhs": rhs})

    monkeypatch.setattr(checker, always)
    laws = [bernoulli(F(1, 2)), uniform_on([0, 2])]
    path = write_dists(tmp_path, "pair.json", *laws)
    witness = tmp_path / "w.json"
    code, _, _ = run(capsys, "check", sub, "--in", path, *flags, "--witness", str(witness))
    assert code == 2
    payload = json.loads(witness.read_text())["witness"]
    assert next(iter(payload)) == "dists"
    assert [Dist.from_json_obj(law) for law in payload["dists"]] == laws


# The identity checks that raise AssertionFailed themselves, each forced through a
# patched helper: (helper, replacement, text of in.json or None, command, message, witness keys).
IDENTITY_FAILURES = [
    ("anticonc.search._next_split", lambda row, a, c: [0] * (len(row) - 1) + [1], None,
     "scan kphase --n 3 --grid 2", "mode left the floor/ceil window of the mean",
     ["n", "k", "p", "mode", "candidates"]),
    ("anticonc.reduction.extreme_point_measure", lambda alpha, points, rest=None: delta(points[0]),
     '{"dim":1,"atoms":[[[0],"1/2"],[[1],"2/5"],[[2],"1/10"]]}', "decompose --in in.json --alpha 1/2",
     "decomposition failed to reconstruct the measure", ["mu", "p", "mu1", "mu2"]),
]


@pytest.mark.parametrize("helper, fake, text, command, message, keys", IDENTITY_FAILURES, ids=["kphase", "decompose"])
def test_identity_failure_exits_2_with_its_witness(tmp_path, capsys, monkeypatch, helper, fake, text, command,
                                                    message, keys):
    monkeypatch.setattr(helper, fake)
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "in.json").write_text(text)
    code, _, err = run(capsys, *command.split())
    assert code == 2
    assert err == f"violated: {message} (witness written to witness.json)\n"
    payload = json.loads((tmp_path / "witness.json").read_text())
    assert payload["error"] == message
    assert list(payload["witness"]) == keys


def test_module_entry_point(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "anticonc", *argv], env=env, capture_output=True, text=True)

    ok = module("family", "binom", "--n", "2", "--p", "1/3")
    assert ok.returncode == 0
    assert ok.stdout == run(capsys, "family", "binom", "--n", "2", "--p", "1/3")[1]
    bad = module("family", "binom", "--n", "-1", "--p", "1/3")
    assert bad.returncode == 1
    assert "error:" in bad.stderr


# -- the JSON writer against json.dumps of the nested form it replaced ----------


def jsonable(value):
    """The reference: the nested lists, dicts and strings json.dumps(..., indent=2) wrote a result from."""
    if isinstance(value, F):
        return format_fraction(value)
    if isinstance(value, Dist):
        return value.to_json_obj()
    if isinstance(value, CenteredSeq):
        return [format_fraction(v) for v in value.values]
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


@st.composite
def written_laws(draw):
    """Laws in dims 1-3 on points with negative coordinates, from one atom up, with numerators of a few bits or of
    1,000 and more."""
    dim = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * dim), min_size=1, max_size=4, unique=True))
    weights = [draw(st.one_of(st.integers(1, 9), st.integers(2**1000, 2**1100))) for _ in points]
    return Dist.from_entries(zip(points, [F(w, sum(weights)) for w in weights]))


lattice_points = st.lists(st.integers(-5, 5), min_size=1, max_size=3).map(tuple)
written_results = st.recursive(
    st.one_of(
        written_laws(),
        st.fractions(),
        st.lists(st.fractions(min_value=0), min_size=1, max_size=7).filter(lambda v: len(v) % 2).map(
            CenteredSeq.from_values),
        st.builds(Extremal, st.lists(lattice_points, max_size=3).map(tuple), st.one_of(st.none(), lattice_points)),
        st.builds(Mixture, st.fractions(0, 1), written_laws(), written_laws()),
        st.just(Dist.from_entries([((), 1)])),
        st.none(), st.booleans(), st.integers(), st.floats(), st.sampled_from([math.inf, -math.inf]),
        st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f'), st.characters())),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-3, 3)), inner, max_size=4),
    ),
    max_leaves=12,
)


@given(written_results)
def test_the_writer_matches_json_dumps_of_the_nested_form(value):
    assert cli._dumps(value) == json.dumps(jsonable(value), indent=2)
    assert cli._dumps({"error": "a \"quoted\" \\ witness", "witness": value}) == json.dumps(
        {"error": "a \"quoted\" \\ witness", "witness": jsonable(value)}, indent=2)
