import contextlib
import json
import math
import struct
import subprocess
import sys
import time
from unittest import mock

import pytest

from dnarate import cli, decoder, overall_rate
from dnarate.cli import CURVE_HEADER, SIM_HEADER, main

CH = ["--c", "1", "--beta", "0.05", "--p", "0.1"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SCHEME = ["--K", "2", "--rix", "0.5304", "--rin", "0.4"]
SIM = ["simulate", *CH, *SCHEME, "--rout", "0.8", "--M", "256"]

# Invalid inputs and the exit code each must give; every one is rejected
# before any estimate or simulation runs.
INVALID = {
    "c zero": (["capacity", "--c", "0", "--beta", "0.05", "--p", "0.1"], 2),
    "c negative": (["capacity", "--c", "-1", "--beta", "0.05", "--p", "0.1"], 2),
    "c inf": (["capacity", "--c", "inf", "--beta", "0.05", "--p", "0.1"], 2),
    "beta zero": (["capacity", "--c", "1", "--beta", "0", "--p", "0.1"], 2),
    "beta one": (["capacity", "--c", "1", "--beta", "1", "--p", "0.1"], 2),
    "p 0.6": (["capacity", "--c", "1", "--beta", "0.05", "--p", "0.6"], 2),
    "p nan": (["capacity", "--c", "1", "--beta", "0.05", "--p", "nan"], 2),
    "tail-eps zero": (["capacity", *CH, "--tail-eps", "0"], 2),
    "tail-eps negative": (["rate", *CH, *SCHEME, "--tail-eps=-1e-12"], 2),
    "tail-eps one": (["capacity", *CH, "--tail-eps", "1"], 2),
    "tail-eps inf": (["rate", *CH, *SCHEME, "--tail-eps", "inf"], 2),
    "K zero": (["rate", *CH, "--K", "0", "--rix", "0.5304", "--rin", "0.4"], 2),
    "rix zero": (["rate", *CH, "--K", "2", "--rix", "0", "--rin", "0.4"], 2),
    "rix one": (["rate", *CH, "--K", "2", "--rix", "1", "--rin", "0.4"], 2),
    "rin zero": (["rate", *CH, "--K", "2", "--rix", "0.5304", "--rin", "0"], 2),
    "rin one": (["rate", *CH, "--K", "2", "--rix", "0.5304", "--rin", "1"], 2),
    "rout zero": (["rate", *CH, *SCHEME, "--rout", "0"], 2),
    "rout 1.5": (["rate", *CH, *SCHEME, "--rout", "1.5"], 2),
    "simulate rout zero": (["simulate", *CH, *SCHEME, "--rout", "0", "--M", "256"], 2),
    "curve K sweep from 0": (["curve", "--sweep", "K", "--values", "0,1", *CH], 2),
    "curve values not numbers": (["curve", "--sweep", "K", "--values", "a,b", *CH], 2),
    "curve values empty": (["curve", "--sweep", "K", "--values", ",", *CH], 2),
    "optimize K zero": (["optimize", *CH, "--K", "0"], 2),
    "optimize p one half, no positive rate": (
        ["optimize", "--c", "1", "--beta", "0.05", "--p", "0.5", "--K", "1"], 2),
    "simulate zero trials": ([*SIM, "--trials", "0"], 2),
    "simulate M not a multiple of K": ([*SIM[:-1], "255"], 2),
    "simulate M zero": ([*SIM[:-1], "0"], 2),
    "rix at beta, exact at K=1000": (
        ["rate", *CH, "--K", "1000", "--rix", "0.05", "--rin", "0.4",
         "--method", "exact"], 2),
    "rix below beta, exact at K=1000": (
        ["rate", *CH, "--K", "1000", "--rix", "0.04", "--rin", "0.4",
         "--method", "exact"], 2),
    "asymptotic curve rix 1.5": (
        ["curve", "--sweep", "rin", "--values", "0.5", *CH, "--K", "0", "--rix", "1.5"], 2),
    "mc threads zero": (["rate", *CH, *SCHEME, "--method", "mc", "--threads", "0"], 2),
    "mc threads negative": (["rate", *CH, *SCHEME, "--method", "mc", "--threads", "-3"], 2),
    "optimize threads negative": (["optimize", *CH, "--K", "1", "--threads", "-3"], 2),
    "curve K sweep threads zero": (
        ["curve", "--sweep", "K", "--values", "1", *CH, "--threads", "0"], 2),
    "simulate threads zero": ([*SIM, "--threads", "0"], 2),
    "capacity threads zero": (["capacity", *CH, "--threads", "0"], 2),
    "exact rate samples zero": (["rate", *CH, *SCHEME, "--method", "exact", "--samples", "0"], 2),
    "auto rate samples zero": (["rate", *CH, *SCHEME, "--samples", "0"], 2),
    "optimize samples negative, auto picks exact": (
        ["optimize", *CH, "--K", "3", "--samples=-5"], 2),
    "asymptotic curve rin outside (0, 1)": (
        ["curve", "--sweep", "rin", "--K", "0", "--rix", "0.5304", "--values=-0.5,0.2,1.5",
         "--c", "2", "--beta", "0.05", "--p", "0.1"], 2),
}


@pytest.mark.parametrize("argv,code", INVALID.values(), ids=INVALID.keys())
def test_invalid_input_exit_code(capsys, argv, code):
    got, out, err = run(capsys, argv)
    assert got == code
    assert out == ""
    assert err.startswith("error: ")


class TestCapacity:
    def test_prints_six_decimals(self, capsys):
        code, out, _ = run(capsys, ["capacity", *CH])
        assert code == 0
        assert out == "0.370762\n"

    def test_high_reading_rate(self, capsys):
        code, out, _ = run(capsys, ["capacity", "--c", "10", "--beta", "0.05", "--p", "0.1"])
        assert code == 0
        assert out == "0.940040\n"

    def test_bad_flip_probability(self, capsys):
        code, _, err = run(capsys, ["capacity", "--c", "1", "--beta", "0.05", "--p", "0.6"])
        assert code == 2
        assert "p out of range" in err

    def test_missing_flag(self, capsys):
        code, _, err = run(capsys, ["capacity", "--c", "1", "--beta", "0.05"])
        assert code == 2
        assert "--p" in err

    def test_file_row(self, capsys, tmp_path):
        out_path = tmp_path / "cap.csv"
        code, _, _ = run(capsys, ["capacity", *CH, "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "c,beta,p,capacity"
        assert float(lines[1].split(",")[-1]) == pytest.approx(0.370762, abs=1e-6)


class TestRate:
    ARGS = ["rate", *CH, "--K", "1", "--rix", "0.530473402", "--rin", "0.53"]

    def test_readme_output(self, capsys):
        code, out, _ = run(capsys, ["rate", *CH, "--K", "1", "--rix", "0.530473",
                                    "--rin", "0.53"])
        assert code == 0
        assert out == ("R_out = 0.632121\nR = 0.303446\nstderr = 0.000000\n"
                       "method = exact\ntruncation_mass = 0.000000\n")

    def test_exact_output(self, capsys):
        code, out, _ = run(capsys, [*self.ARGS, "--method", "exact"])
        assert code == 0
        assert "R_out = 0.632121" in out
        assert "method = exact" in out

    def test_rerun_identical(self, capsys):
        _, out1, _ = run(capsys, [*self.ARGS, "--method", "mc", "--seed", "7"])
        _, out2, _ = run(capsys, [*self.ARGS, "--method", "mc", "--seed", "7"])
        assert out1 == out2

    def test_exact_infeasible_exits_3(self, capsys):
        code, _, err = run(
            capsys,
            ["rate", "--c", "4", "--beta", "0.05", "--p", "0.1", "--K", "64",
             "--rix", "0.5304", "--rin", "0.5", "--method", "exact"],
        )
        assert code == 3
        assert "mc" in err

    def test_exact_at_huge_block_exits_3(self, capsys):
        # C(d_max + K, K) has thousands of digits here; the cap test never
        # builds it, and the message names the cap instead.
        code, out, err = run(
            capsys,
            ["rate", "--c", "2", "--beta", "0.05", "--p", "0.1", "--K", "20000",
             "--rix", "0.5304", "--rin", "0.45", "--method", "exact"],
        )
        assert code == 3
        assert out == ""
        assert "100000000" in err and "Monte-Carlo" in err

    def test_tiny_reading_rate_large_block_is_exact_and_quick(self, capsys, tmp_path):
        # d_max = 1 at K * c = 1e-8, so the type table has two one-column rows.
        path = tmp_path / "rate.csv"
        start = time.perf_counter()
        code, out, _ = run(
            capsys,
            ["rate", "--c", "1e-13", "--beta", "0.05", "--p", "0.1", "--K", "100000",
             "--rix", "0.5304", "--rin", "1e-9", "--out", str(path)],
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0 and "method = exact" in out
        row = dict(zip(*(line.split(",") for line in path.read_text().splitlines())))
        r_out, truncation = float(row["R_out"]), float(row["truncation_mass"])
        assert abs(r_out - -math.expm1(-100000 * 1e-13)) <= truncation + 1e-15

    def test_mc_at_reading_rate_8_finishes(self, capsys):
        code, out, _ = run(
            capsys,
            ["rate", "--c", "8", "--beta", "0.05", "--p", "0.1", "--K", "1",
             "--rix", "0.5", "--rin", "0.5", "--method", "mc"],
        )
        assert code == 0
        assert "method = monte_carlo" in out

    def test_infinite_reading_rate_rejected(self, capsys):
        code, _, err = run(capsys, ["rate", "--c", "inf", "--beta", "0.05", "--p", "0.1",
                                    "--K", "1", "--rix", "0.5", "--rin", "0.5"])
        assert code == 2
        assert "finite" in err

    def test_mc_exact_agreement(self, capsys):
        _, out_e, _ = run(capsys, [*self.ARGS, "--method", "exact"])
        _, out_m, _ = run(capsys, [*self.ARGS, "--method", "mc", "--samples", "200000"])

        def field(out, name):
            return float(next(l.split("=")[1] for l in out.splitlines()
                              if l.startswith(name)))

        exact = field(out_e, "R_out")
        mc = field(out_m, "R_out")
        stderr = field(out_m, "stderr")
        assert abs(exact - mc) <= 3 * max(stderr, 1e-3)


class TestCurve:
    def test_header_and_round_trip(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys,
            ["curve", "--sweep", "K", "--values", "1,2,3", *CH,
             "--samples", "2000", "--seed", "0", "--out", str(path)],
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "sweep_var,R_ix,R_in,R_out,R,stderr,method"
        assert [l.split(",")[0] for l in lines[1:]] == ["1", "2", "3"]
        for line in lines[1:]:
            _, r_ix, r_in, r_out, r, _, _ = line.split(",")
            recomputed = overall_rate(float(r_in), float(r_out), float(r_ix), 0.05)
            assert abs(recomputed - float(r)) <= 1e-9

    def test_single_value_single_row(self, capsys):
        code, out, _ = run(
            capsys,
            ["curve", "--sweep", "rin", "--values", "0.5", *CH,
             "--K", "1", "--rix", "0.5304"],
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_asymptotic_mode_steps_at_mean(self, capsys):
        code, out, _ = run(
            capsys,
            ["curve", "--sweep", "rin", "--values", "0.3,0.63,0.65",
             "--c", "2", "--beta", "0.05", "--p", "0.1",
             "--K", "0", "--rix", "0.5304"],
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:]]
        assert [float(r[3]) for r in rows] == [1.0, 1.0, 0.0]
        assert all(r[6] == "asymptotic" for r in rows)

    def test_asymptotic_index_rate_checked(self, capsys):
        code, out, err = run(
            capsys,
            ["curve", "--sweep", "rin", "--values", "0.5", *CH, "--K", "0", "--rix", "1.5"],
        )
        assert code == 2
        assert out == ""
        assert "r_ix out of range" in err

    def test_inner_rate_sweep_needs_block_size(self, capsys):
        code, out, err = run(
            capsys, ["curve", "--sweep", "rin", "--values", "0.5", *CH, "--rix", "0.5304"]
        )
        assert code == 2
        assert out == ""
        assert "--K is required" in err

    @pytest.mark.parametrize(
        "sweep",
        [
            ["--sweep", "K", "--values", "1,2,3", "--samples", "2000"],
            ["--sweep", "rin", "--values", "0.3,0.45,0.6", "--K", "2", "--rix", "0.5304"],
            ["--sweep", "rin", "--values", "0.3,0.63,0.65", "--K", "0", "--rix", "0.5304"],
        ],
        ids=["K", "rin", "rin asymptotic"],
    )
    def test_json_rows_match_csv(self, capsys, sweep):
        argv = ["curve", *sweep, "--c", "2", "--beta", "0.05", "--p", "0.1"]
        code, csv_out, _ = run(capsys, argv)
        assert code == 0
        code, json_out, _ = run(capsys, [*argv, "--format", "json"])
        assert code == 0
        header, *lines = csv_out.splitlines()
        assert header == CURVE_HEADER
        objs = json.loads(json_out)
        assert [list(o) for o in objs] == [CURVE_HEADER.split(",")] * len(lines)
        for obj, line in zip(objs, lines):
            *numbers, method = line.split(",")
            assert [float(v) for v in list(obj.values())[:-1]] == [float(v) for v in numbers]
            assert obj["method"] == method

    def test_values_must_increase(self, capsys):
        code, _, err = run(
            capsys, ["curve", "--sweep", "K", "--values", "3,1", *CH]
        )
        assert code == 2
        assert "increasing" in err

    def test_unwritable_path_exits_4(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["curve", "--sweep", "rin", "--values", "0.5", *CH, "--K", "1",
             "--rix", "0.5304", "--out", str(tmp_path / "no" / "dir" / "x.csv")],
        )
        assert code == 4
        assert "cannot write" in err


class TestOptimize:
    def test_readme_output(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--c", "10", "--beta", "0.05", "--p", "0.1",
                                    "--K", "100"])
        assert code == 0
        assert out == ("d_candidate = 3\nR_ix = 0.861555\nR_in = 0.967749\n"
                       "R_out = 0.997100\nR = 0.908942\nstderr = 0.000538\n"
                       "method = monte_carlo\n")

    def test_json_record(self, capsys):
        import json

        code, out, _ = run(capsys, ["optimize", *CH, "--K", "1", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["K"] == 1 and obj["d_candidate"] == 1
        assert obj["r"] == pytest.approx(0.306575, abs=0.01)

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_mc_sample_budget_checked(self, capsys, samples):
        # under every method, although only Monte-Carlo spends the budget
        for method in ("mc", "exact", "auto"):
            code, out, err = run(capsys, ["optimize", "--c", "2", "--beta", "0.05", "--p", "0.1",
                                          "--K", "100", f"--samples={samples}",
                                          "--method", method])
            assert code == 2
            assert out == ""
            assert f"samples out of range: must be a positive integer, got {samples}" in err

    def test_csv_row_is_numeric(self, capsys, tmp_path):
        # the overall rate was written as "np.float64(...)"
        path = tmp_path / "opt.csv"
        code, _, _ = run(capsys, ["optimize", *CH, "--K", "1", "--out", str(path)])
        assert code == 0
        row = path.read_text().splitlines()[1].split(",")
        assert all(math.isfinite(float(v)) for v in row[:-1]) and row[-1] == "exact"

    def test_never_beats_capacity(self, capsys):
        _, cap_out, _ = run(capsys, ["capacity", *CH])
        code, out, _ = run(capsys, ["optimize", *CH, "--K", "3"])
        assert code == 0
        r = float(next(l.split("=")[1] for l in out.splitlines() if l.startswith("R ")))
        assert r <= float(cap_out) + 1e-6


class TestSimulate:
    ARGS = ["simulate", "--c", "2", "--beta", "0.05", "--p", "0.1",
            "--K", "2", "--rix", "0.5304", "--rin", "0.4", "--rout", "0.8",
            "--M", "256", "--seed", "1"]

    def test_csv_and_summary(self, capsys, tmp_path):
        path = tmp_path / "sim.csv"
        code, out, _ = run(capsys, [*self.ARGS, "--trials", "3", "--out", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,M_C,M_Ix,M_In,s,t,success"
        assert len(lines) == 4
        assert out.startswith("success_rate = ")

    def test_json_rows_match_csv(self, capsys):
        code, csv_out, _ = run(capsys, [*self.ARGS, "--trials", "4"])
        assert code == 0
        code, json_out, _ = run(capsys, [*self.ARGS, "--trials", "4", "--format", "json"])
        assert code == 0
        csv_lines = csv_out.splitlines()
        json_lines = json_out.splitlines()
        # The success_rate summary follows the table on stdout in both formats.
        assert csv_lines[-1] == json_lines[-1]
        header, *rows = csv_lines[:-1]
        assert header == SIM_HEADER
        objs = json.loads("\n".join(json_lines[:-1]))
        assert len(objs) == len(rows) == 4
        for obj, row in zip(objs, rows):
            assert list(obj) == SIM_HEADER.split(",")
            assert isinstance(obj["success"], bool)
            cells = row.split(",")
            assert cells[-1] in ("0", "1")
            assert [int(obj[k]) for k in obj] == [int(v) for v in cells]

    def test_zero_trials_rejected(self, capsys):
        code, _, err = run(capsys, [*self.ARGS, "--trials", "0"])
        assert code == 2
        assert "trials" in err

    def test_budget_exceeded_exits_5(self, capsys, monkeypatch):
        # The error names the pair source, its work and the budget.
        monkeypatch.setattr(decoder, "DEFAULT_DISTANCE_BUDGET", 1000)
        code, _, err = run(capsys, [*self.ARGS, "--trials", "2", "--threads", "2"])
        assert code == 5
        assert "distinct reads by the scan takes" in err and "over the budget of 1,000" in err

    def test_huge_M_exits_5_before_any_draw(self, capsys, monkeypatch):
        monkeypatch.setattr(decoder, "random_pool", mock.Mock(side_effect=AssertionError))
        start = time.perf_counter()
        code, _, err = run(capsys, [*self.ARGS[:-4], "--M", str(2**30), "--trials", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 5
        assert "M = 1,073,741,824 strands of L = 600 bits" in err and "bytes, over the bound" in err

    # The clean point at p = 0, where the pigeonhole index lists the near pairs.
    CLEAN = ["simulate", "--c", "3", "--beta", "0.05", "--p", "0",
             "--K", "4", "--rix", "0.9", "--rin", "0.9", "--rout", "0.7",
             "--M", "512", "--seed", "1"]

    def assert_threads_give_the_same_bytes(self, capsys, tmp_path, args):
        bodies = []
        for threads in ("1", "2", "8"):
            path = tmp_path / f"sim{threads}.csv"
            code, _, _ = run(
                capsys,
                [*args, "--trials", "4", "--threads", threads, "--out", str(path)],
            )
            assert code == 0
            bodies.append(path.read_bytes())
        assert bodies[0] == bodies[1] == bodies[2]

    def test_thread_count_does_not_change_bytes(self, capsys, tmp_path):
        self.assert_threads_give_the_same_bytes(capsys, tmp_path, self.ARGS)

    def test_thread_count_does_not_change_bytes_at_the_clean_point(self, capsys, tmp_path):
        self.assert_threads_give_the_same_bytes(capsys, tmp_path, self.CLEAN)


class TestReplay:
    def test_replay_matches_recorded_trial(self, capsys, tmp_path):
        dump = tmp_path / "chan.bin"
        sim_csv = tmp_path / "sim.csv"
        code, _, _ = run(
            capsys,
            ["simulate", "--c", "2", "--beta", "0.05", "--p", "0.1",
             "--K", "2", "--rix", "0.5304", "--rin", "0.4", "--rout", "0.8",
             "--M", "256", "--trials", "1", "--seed", "1",
             "--dump", str(dump), "--out", str(sim_csv)],
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            ["replay", "--in", str(dump), "--p", "0.1", "--K", "2",
             "--rix", "0.5304", "--rin", "0.4", "--rout", "0.8"],
        )
        assert code == 0
        row = sim_csv.read_text().splitlines()[1].split(",")
        fields = dict(l.split(" = ") for l in out.splitlines())
        assert fields["M_C"] == row[1]
        assert fields["s"] == row[4]
        assert fields["t"] == row[5]
        assert fields["success"] == row[6]

    def test_replay_of_an_over_budget_dump_exits_5(self, capsys, tmp_path, monkeypatch):
        dump = tmp_path / "chan.bin"
        code, _, _ = run(capsys, [*SIM, "--trials", "1", "--dump", str(dump)])
        assert code == 0
        monkeypatch.setattr(decoder, "DEFAULT_DISTANCE_BUDGET", 1000)
        code, _, err = run(capsys, ["replay", "--in", str(dump), "--p", "0.1", *SCHEME,
                                    "--rout", "0.8"])
        assert code == 5
        assert "distinct reads by the scan takes" in err and "over the budget of 1,000" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_replay_writes_the_simulate_table(self, capsys, tmp_path, fmt):
        dump, sim_out, replay_out = tmp_path / "d.bin", tmp_path / "a", tmp_path / "b"
        scheme = [*CH, *SCHEME, "--rout", "0.8", "--rho", "0.3", "--format", fmt]
        code, _, _ = run(capsys, ["simulate", *scheme, "--M", "256", "--trials", "1",
                                  "--seed", "5", "--dump", str(dump), "--out", str(sim_out)])
        assert code == 0
        code, out, _ = run(capsys, ["replay", "--in", str(dump), *scheme,
                                    "--out", str(replay_out)])
        assert code == 0
        assert replay_out.read_bytes() == sim_out.read_bytes()
        assert [l.split(" = ")[0] for l in out.splitlines()] == [
            "M_C", "M_Ix", "M_In", "s", "t", "success"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dump_draws_the_trial_once_and_keeps_the_table(
        self, capsys, tmp_path, monkeypatch, fmt
    ):
        calls = []
        original = decoder._trial_output

        def counted(*args):
            calls.append(args[2:])
            return original(*args)

        monkeypatch.setattr(decoder, "_trial_output", counted)
        monkeypatch.setattr(cli, "_trial_output", counted)
        argv = [*SIM, "--trials", "1", "--seed", "3", "--format", fmt]
        code, plain_out, _ = run(capsys, [*argv, "--out", str(tmp_path / "plain")])
        assert code == 0 and calls == [(3, 0)]
        calls.clear()
        dump = tmp_path / "chan.bin"
        code, dump_out, _ = run(
            capsys, [*argv, "--out", str(tmp_path / "dumped"), "--dump", str(dump)]
        )
        assert code == 0 and calls == [(3, 0)]
        assert dump_out == plain_out
        assert (tmp_path / "dumped").read_bytes() == (tmp_path / "plain").read_bytes()
        assert dump.stat().st_size > 0

    def test_dump_keeps_the_budget_exit_and_the_scheme_warning(
        self, capsys, tmp_path, monkeypatch
    ):
        dump = tmp_path / "chan.bin"
        with monkeypatch.context() as patch:
            patch.setattr(decoder, "DEFAULT_DISTANCE_BUDGET", 1000)
            code, _, err = run(capsys, [*SIM, "--trials", "1", "--dump", str(dump)])
        assert code == 5
        assert "distinct reads by the scan takes" in err and "over the budget of 1,000" in err
        assert not dump.exists()
        bad = ["simulate", *CH, "--K", "2", "--rix", "0.06", "--rin", "0.04",
               "--rout", "0.8", "--M", "64", "--trials", "1", "--dump", str(dump)]
        with pytest.warns(UserWarning, match="clustering margin|beta"):
            code, _, _ = run(capsys, bad)
        assert code == 0 and dump.exists()

    def test_dump_into_a_missing_directory_exits_4(self, capsys, tmp_path):
        dump = tmp_path / "no" / "dir" / "chan.bin"
        code, out, err = run(capsys, [*SIM, "--trials", "1", "--dump", str(dump)])
        assert code == 4
        assert out == ""
        assert "cannot write" in err

    def test_dump_needs_single_trial(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["simulate", "--c", "2", "--beta", "0.05", "--p", "0.1",
             "--K", "2", "--rix", "0.5304", "--rin", "0.4", "--rout", "0.8",
             "--M", "256", "--trials", "2", "--dump", str(tmp_path / "x.bin")],
        )
        assert code == 2

    def test_block_size_not_dividing_pool_exits_2_before_clustering(
        self, capsys, tmp_path, monkeypatch
    ):
        dump = tmp_path / "chan.bin"
        code, _, _ = run(capsys, [*SIM, "--trials", "1", "--seed", "1", "--dump", str(dump)])
        assert code == 0

        def no_clustering(output, config):
            raise AssertionError("clustering ran")

        monkeypatch.setattr(decoder, "greedy_cluster", no_clustering)
        code, out, err = run(
            capsys,
            ["replay", "--in", str(dump), "--p", "0.1", "--K", "3",
             "--rix", "0.5304", "--rin", "0.4", "--rout", "0.8"],
        )
        assert code == 2
        assert out == ""
        assert "divide" in err

    @pytest.mark.parametrize("m,length,origins", [(0, 8, []), (4, 0, [0, 1])],
                             ids=["no strands", "zero length"])
    def test_empty_dimensions_exit_4(self, capsys, tmp_path, m, length, origins):
        dump = tmp_path / "empty.bin"
        header = struct.pack("<4sHQQQ", b"DNAC", 1, m, length, len(origins))
        dump.write_bytes(header + struct.pack(f"<{len(origins)}Q", *origins))
        code, out, err = run(
            capsys,
            ["replay", "--in", str(dump), "--c", "2", "--beta", "0.05", "--p", "0.1",
             "--K", "1", "--rix", "0.5304", "--rin", "0.4", "--rout", "0.8"],
        )
        assert code == 4
        assert out == ""
        assert "M=" in err and "L=" in err

    def test_set_padding_bits_exit_4(self, capsys, tmp_path):
        # L = 100 leaves 4 padding bits in each read's last byte
        dump = tmp_path / "padded.bin"
        header = struct.pack("<4sHQQQ", b"DNAC", 1, 2, 100, 2)
        reads = bytes(13) + bytes(12) + b"\x0f"
        dump.write_bytes(header + reads + struct.pack("<2Q", 0, 1))
        code, out, err = run(
            capsys,
            ["replay", "--in", str(dump), "--p", "0.1", "--K", "1",
             "--rix", "0.5304", "--rin", "0.4", "--rout", "0.8"],
        )
        assert code == 4
        assert out == ""
        assert "padding bits" in err

    def test_corrupt_dump_exits_4(self, capsys, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + b"\0" * 30)
        code, _, _ = run(
            capsys,
            ["replay", "--in", str(bad), "--p", "0.1", "--K", "2",
             "--rix", "0.5304", "--rin", "0.4", "--rout", "0.8"],
        )
        assert code == 4

    def test_missing_dump_exits_4(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["replay", "--in", str(tmp_path / "missing.bin"), "--p", "0.1", "--K", "2",
             "--rix", "0.5304", "--rin", "0.4", "--rout", "0.8"],
        )
        assert code == 4
        assert "cannot read" in err


class TestConfig:
    def test_config_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 1\nbeta = 0.05\np = 0.1  # trailing comment\n")
        code, out, _ = run(capsys, ["capacity", "--config", str(cfg)])
        assert code == 0
        assert out == "0.370762\n"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 1\nbeta = 0.05\np = 0.1\n")
        code, out, _ = run(capsys, ["capacity", "--config", str(cfg), "--c", "10"])
        assert code == 0
        assert out == "0.940040\n"

    def test_unreadable_config_exits_4(self, capsys, tmp_path):
        code, _, err = run(capsys, ["capacity", *CH, "--config", str(tmp_path / "missing.cfg")])
        assert code == 4
        assert "cannot read config" in err

    def test_line_without_equals_rejected(self, capsys, tmp_path):
        # the comment line and the blank line before it are skipped but counted
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\nc 1\n")
        code, _, err = run(capsys, ["capacity", *CH, "--config", str(cfg)])
        assert code == 2
        assert "run.cfg:3: expected 'key = value'" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 1\nwhatever = 3\n")
        code, _, err = run(capsys, ["capacity", "--config", str(cfg)])
        assert code == 2
        assert "unknown config key" in err

    def test_format_value_checked(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        code, out, err = run(capsys, ["capacity", *CH, "--config", str(cfg),
                                      "--out", str(tmp_path / "cap.txt")])
        assert code == 2
        assert out == ""
        assert "bad value for format" in err
        assert not (tmp_path / "cap.txt").exists()

    def test_integer_value_checked(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rin = 0.5\nK = 2.5\n")
        code, _, err = run(capsys, ["rate", *CH, "--rix", "0.5304", "--config", str(cfg)])
        assert code == 2
        assert "bad value for K" in err

    def test_threads_value_checked(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = -7\n")
        code, out, err = run(capsys, ["rate", *CH, *SCHEME, "--method", "mc",
                                      "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert "threads out of range: must be a positive integer, got -7" in err

    def test_threads_env_clamped(self, capsys, monkeypatch):
        monkeypatch.setenv("DNARATE_THREADS", "0")
        code, out, _ = run(capsys, ["rate", *CH, *SCHEME, "--method", "mc",
                                    "--samples", "1000"])
        assert code == 0
        assert "method = monte_carlo" in out

    def test_threads_env_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("DNARATE_THREADS", "abc")
        code, out, err = run(capsys, ["capacity", *CH])
        assert code == 2
        assert out == ""
        assert "DNARATE_THREADS must be an integer, got 'abc'" in err

    def test_threads_env_default(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("DNARATE_THREADS", "2")
        path = tmp_path / "out.csv"
        code, _, _ = run(
            capsys,
            ["rate", *CH, "--K", "2", "--rix", "0.5304", "--rin", "0.4",
             "--method", "mc", "--samples", "70000", "--out", str(path)],
        )
        assert code == 0
        monkeypatch.setenv("DNARATE_THREADS", "1")
        path2 = tmp_path / "out2.csv"
        code, _, _ = run(
            capsys,
            ["rate", *CH, "--K", "2", "--rix", "0.5304", "--rin", "0.4",
             "--method", "mc", "--samples", "70000", "--out", str(path2)],
        )
        assert code == 0
        assert path.read_bytes() == path2.read_bytes()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dnarate", "capacity", *CH],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.370762"


# ---------------------------------------------------------------------------
# Golden outputs: the bytes each subcommand writes to stdout and to --out, in
# both formats, pinned as literals. "{dump}" stands for the channel dump that
# simulate writes and replay reads.

GOLDEN_SIM = ["--c", "3", "--beta", "0.05", "--p", "0.02", "--K", "4", "--rix", "0.7",
              "--rin", "0.6", "--rout", "0.5"]
GOLDEN_RUNS = {
    "capacity": ["capacity", *CH],
    "rate exact": ["rate", *CH, "--K", "1", "--rix", "0.530473", "--rin", "0.53"],
    "rate mc": ["rate", "--c", "2", "--beta", "0.05", "--p", "0.1", "--K", "10",
                "--rix", "0.5304", "--rin", "0.45", "--method", "mc", "--samples", "5000",
                "--seed", "3"],
    "optimize exact": ["optimize", *CH, "--K", "1"],
    "optimize mc": ["optimize", "--c", "2", "--beta", "0.05", "--p", "0.1", "--K", "10",
                    "--method", "mc", "--samples", "2000", "--seed", "4"],
    "curve K": ["curve", "--sweep", "K", "--values", "1,2", *CH],
    "curve rin": ["curve", "--sweep", "rin", "--values", "0.3,0.45", *CH, "--K", "2",
                  "--rix", "0.5304"],
    "curve rin K=0": ["curve", "--sweep", "rin", "--values", "0.3,0.5", *CH, "--K", "0",
                      "--rix", "0.5304"],
    "simulate": ["simulate", *GOLDEN_SIM, "--M", "256", "--seed", "1", "--dump", "{dump}"],
    "replay": ["replay", "--in", "{dump}", *GOLDEN_SIM[4:]],
}
# name: (stdout with --out, the CSV file, the JSON file)
GOLDEN = {
    "capacity": (
        "0.370762\n",
        (
            "c,beta,p,capacity\n"
            "1.0,0.05,0.1,0.37076199137325977\n"
        ),
        (
            "{\n"
            '  "c": 1.0,\n'
            '  "beta": 0.05,\n'
            '  "p": 0.1,\n'
            '  "capacity": 0.37076199137325977\n'
            "}\n"
        ),
    ),
    "rate exact": (
        (
            "R_out = 0.632121\n"
            "R = 0.303446\n"
            "stderr = 0.000000\n"
            "method = exact\n"
            "truncation_mass = 0.000000\n"
        ),
        (
            "R_ix,R_in,R_out,R,stderr,method,truncation_mass\n"
            "0.530473,0.53,0.6321205588282578,0.30344604997577906,0.0,exact,3.0000106665251957e-13\n"
        ),
        (
            "{\n"
            '  "r_ix": 0.530473,\n'
            '  "r_in": 0.53,\n'
            '  "r_out": 0.6321205588282578,\n'
            '  "r": 0.30344604997577906,\n'
            '  "stderr": 0.0,\n'
            '  "method": "exact",\n'
            '  "samples": 0,\n'
            '  "truncation_mass": 3.0000106665251957e-13\n'
            "}\n"
        ),
    ),
    "rate mc": (
        (
            "R_out = 0.968200\n"
            "R = 0.394618\n"
            "stderr = 0.002481\n"
            "method = monte_carlo\n"
            "truncation_mass = 0.000000\n"
        ),
        (
            "R_ix,R_in,R_out,R,stderr,method,truncation_mass\n"
            "0.5304,0.45,0.9682,0.39461816742081446,0.0024814818153675857,monte_carlo,0.0\n"
        ),
        (
            "{\n"
            '  "r_ix": 0.5304,\n'
            '  "r_in": 0.45,\n'
            '  "r_out": 0.9682,\n'
            '  "r": 0.39461816742081446,\n'
            '  "stderr": 0.0024814818153675857,\n'
            '  "method": "monte_carlo",\n'
            '  "samples": 5000,\n'
            '  "truncation_mass": 0.0\n'
            "}\n"
        ),
    ),
    "optimize exact": (
        (
            "d_candidate = 1\n"
            "R_ix = 0.530473\n"
            "R_in = 0.531004\n"
            "R_out = 0.632121\n"
            "R = 0.304021\n"
            "stderr = 0.000000\n"
            "method = exact\n"
        ),
        (
            "K,d_candidate,R_ix,R_in,R_out,R,stderr,method\n"
            "1,1,0.5304734020043081,0.5310044064107188,0.6321205588282578,0.304021136513591,0.0,exact\n"
        ),
        (
            "{\n"
            '  "K": 1,\n'
            '  "d_candidate": 1,\n'
            '  "r_ix": 0.5304734020043081,\n'
            '  "r_in": 0.5310044064107188,\n'
            '  "r_out": 0.6321205588282578,\n'
            '  "r": 0.304021136513591,\n'
            '  "stderr": 0.0,\n'
            '  "method": "exact",\n'
            '  "samples": 0\n'
            "}\n"
        ),
    ),
    "optimize mc": (
        (
            "d_candidate = 1\n"
            "R_ix = 0.530473\n"
            "R_in = 0.530180\n"
            "R_out = 0.883000\n"
            "R = 0.424023\n"
            "stderr = 0.007187\n"
            "method = monte_carlo\n"
        ),
        (
            "K,d_candidate,R_ix,R_in,R_out,R,stderr,method\n"
            "10,1,0.5304734020043081,0.5301796151902988,0.883,0.4240230513689061,0.007187176079657434,monte_carlo\n"
        ),
        (
            "{\n"
            '  "K": 10,\n'
            '  "d_candidate": 1,\n'
            '  "r_ix": 0.5304734020043081,\n'
            '  "r_in": 0.5301796151902988,\n'
            '  "r_out": 0.883,\n'
            '  "r": 0.4240230513689061,\n'
            '  "stderr": 0.007187176079657434,\n'
            '  "method": "monte_carlo",\n'
            '  "samples": 2000\n'
            "}\n"
        ),
    ),
    "curve K": (
        "",
        (
            "sweep_var,R_ix,R_in,R_out,R,stderr,method\n"
            "1,0.5304734020043081,0.5310044064107188,0.6321205588282578,0.304021136513591,0.0,exact\n"
            "2,0.5304734020043081,0.2655022032053594,0.8646647167627393,0.2079321311592016,0.0,exact\n"
        ),
        (
            "[\n"
            "  {\n"
            '    "sweep_var": 1,\n'
            '    "R_ix": 0.5304734020043081,\n'
            '    "R_in": 0.5310044064107188,\n'
            '    "R_out": 0.6321205588282578,\n'
            '    "R": 0.304021136513591,\n'
            '    "stderr": 0.0,\n'
            '    "method": "exact"\n'
            "  },\n"
            "  {\n"
            '    "sweep_var": 2,\n'
            '    "R_ix": 0.5304734020043081,\n'
            '    "R_in": 0.2655022032053594,\n'
            '    "R_out": 0.8646647167627393,\n'
            '    "R": 0.2079321311592016,\n'
            '    "stderr": 0.0,\n'
            '    "method": "exact"\n'
            "  }\n"
            "]\n"
        ),
    ),
    "curve rin": (
        "",
        (
            "sweep_var,R_ix,R_in,R_out,R,stderr,method\n"
            "0.3,0.5304,0.3,0.5939941502895139,0.16139976798590636,0.0,exact\n"
            "0.45,0.5304,0.45,0.41354710597403044,0.16855319262719815,0.0,exact\n"
        ),
        (
            "[\n"
            "  {\n"
            '    "sweep_var": 0.3,\n'
            '    "R_ix": 0.5304,\n'
            '    "R_in": 0.3,\n'
            '    "R_out": 0.5939941502895139,\n'
            '    "R": 0.16139976798590636,\n'
            '    "stderr": 0.0,\n'
            '    "method": "exact"\n'
            "  },\n"
            "  {\n"
            '    "sweep_var": 0.45,\n'
            '    "R_ix": 0.5304,\n'
            '    "R_in": 0.45,\n'
            '    "R_out": 0.41354710597403044,\n'
            '    "R": 0.16855319262719815,\n'
            '    "stderr": 0.0,\n'
            '    "method": "exact"\n'
            "  }\n"
            "]\n"
        ),
    ),
    "curve rin K=0": (
        "",
        (
            "sweep_var,R_ix,R_in,R_out,R,stderr,method\n"
            "0.3,0.5304,0.3,1.0,0.27171945701357464,0.0,asymptotic\n"
            "0.5,0.5304,0.5,0.0,0.0,0.0,asymptotic\n"
        ),
        (
            "[\n"
            "  {\n"
            '    "sweep_var": 0.3,\n'
            '    "R_ix": 0.5304,\n'
            '    "R_in": 0.3,\n'
            '    "R_out": 1.0,\n'
            '    "R": 0.27171945701357464,\n'
            '    "stderr": 0.0,\n'
            '    "method": "asymptotic"\n'
            "  },\n"
            "  {\n"
            '    "sweep_var": 0.5,\n'
            '    "R_ix": 0.5304,\n'
            '    "R_in": 0.5,\n'
            '    "R_out": 0.0,\n'
            '    "R": 0.0,\n'
            '    "stderr": 0.0,\n'
            '    "method": "asymptotic"\n'
            "  }\n"
            "]\n"
        ),
    ),
    "simulate": (
        "success_rate = 1.000000\n",
        (
            "trial,M_C,M_Ix,M_In,s,t,success\n"
            "0,2,2,0,32,32,1\n"
        ),
        (
            "[\n"
            "  {\n"
            '    "trial": 0,\n'
            '    "M_C": 2,\n'
            '    "M_Ix": 2,\n'
            '    "M_In": 0,\n'
            '    "s": 32,\n'
            '    "t": 32,\n'
            '    "success": true\n'
            "  }\n"
            "]\n"
        ),
    ),
    "replay": (
        (
            "M_C = 2\n"
            "M_Ix = 2\n"
            "M_In = 0\n"
            "s = 32\n"
            "t = 32\n"
            "success = 1\n"
        ),
        (
            "trial,M_C,M_Ix,M_In,s,t,success\n"
            "0,2,2,0,32,32,1\n"
        ),
        (
            "[\n"
            "  {\n"
            '    "trial": 0,\n'
            '    "M_C": 2,\n'
            '    "M_Ix": 2,\n'
            '    "M_In": 0,\n'
            '    "s": 32,\n'
            '    "t": 32,\n'
            '    "success": true\n'
            "  }\n"
            "]\n"
        ),
    ),

}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_golden_bytes(capsys, tmp_path, name):
    def argv(name):
        return [a.replace("{dump}", str(tmp_path / "channel.bin")) for a in GOLDEN_RUNS[name]]

    if name == "replay":
        assert run(capsys, argv("simulate"))[0] == 0
    stdout, *bodies = GOLDEN[name]
    for fmt, body in zip(("csv", "json"), bodies):
        path = tmp_path / f"out.{fmt}"
        assert run(capsys, [*argv(name), "--format", fmt, "--out", str(path)]) == (0, stdout, "")
        assert path.read_bytes() == body.encode()
        # Without --out a table goes to stdout, ahead of any summary line, and
        # optimize's JSON record stands in for its lines.
        if name.startswith(("curve", "simulate")):
            alone = body + stdout
        else:
            alone = body if name.startswith("optimize") and fmt == "json" else stdout
        assert run(capsys, [*argv(name), "--format", fmt]) == (0, alone, "")


# Each subcommand's calls into the rate library, by name. bench/tracer.py
# times them by rebinding these names on the cli module, so a call made any
# other way would slip past it.
LIBRARY_CALLS = {
    "capacity": (GOLDEN_RUNS["capacity"], {"channel_capacity": 1}),
    "rate exact": (GOLDEN_RUNS["rate exact"], {"achievable_outer_rate_exact": 1}),
    "rate mc": (GOLDEN_RUNS["rate mc"], {"achievable_outer_rate_mc": 1}),
    "optimize": (GOLDEN_RUNS["optimize exact"], {"optimize_scheme": 1}),
    "curve K": (GOLDEN_RUNS["curve K"], {"optimize_scheme": 2}),
    "curve rin": (GOLDEN_RUNS["curve rin"], {"achievable_outer_rate_exact": 2}),
    "curve c": (["curve", "--sweep", "c", "--values", "1,2,4", "--beta", "0.05", "--p", "0.1",
                 "--K", "3", "--rix", "0.5304", "--rin", "0.45", "--method", "mc",
                 "--samples", "2000"], {"achievable_outer_rate_mc": 3}),
}


@pytest.mark.parametrize("argv,calls", LIBRARY_CALLS.values(), ids=LIBRARY_CALLS.keys())
def test_library_called_through_the_module_globals(capsys, argv, calls):
    names = ["channel_capacity", "achievable_outer_rate_exact", "achievable_outer_rate_mc",
             "optimize_scheme"]
    with contextlib.ExitStack() as stack:
        spies = {name: stack.enter_context(mock.patch.object(
            cli, name, wraps=getattr(cli, name))) for name in names}
        assert run(capsys, argv)[0] == 0
    assert {name: spy.call_count for name, spy in spies.items()} == {
        **dict.fromkeys(names, 0), **calls}
