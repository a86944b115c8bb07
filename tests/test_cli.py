import json
import math
import struct
import subprocess
import sys
import time

import pytest

from dnarate import decoder, overall_rate
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
    "optimize K zero": (["optimize", *CH, "--K", "0"], 2),
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
    def test_json_record(self, capsys):
        import json

        code, out, _ = run(capsys, ["optimize", *CH, "--K", "1", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["K"] == 1 and obj["d_candidate"] == 1
        assert obj["r"] == pytest.approx(0.306575, abs=0.01)

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_mc_sample_budget_checked(self, capsys, samples):
        code, out, err = run(capsys, ["optimize", "--c", "2", "--beta", "0.05", "--p", "0.1",
                                      "--K", "100", f"--samples={samples}", "--method", "mc"])
        assert code == 2
        assert out == ""
        assert f"samples out of range: must be a positive integer, got {samples}" in err

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

    def test_budget_exceeded_exits_5(self, capsys):
        big = ["simulate", "--c", "2", "--beta", "0.05", "--p", "0.1",
               "--K", "2", "--rix", "0.5304", "--rin", "0.4", "--rout", "0.8",
               "--M", str(2**20), "--trials", "1"]
        code, _, err = run(capsys, big)
        assert code == 5
        assert "budget" in err and "try M" in err

    def test_thread_count_does_not_change_bytes(self, capsys, tmp_path):
        bodies = []
        for threads in ("1", "2", "8"):
            path = tmp_path / f"sim{threads}.csv"
            code, _, _ = run(
                capsys,
                [*self.ARGS, "--trials", "4", "--threads", threads, "--out", str(path)],
            )
            assert code == 0
            bodies.append(path.read_bytes())
        assert bodies[0] == bodies[1] == bodies[2]


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

    def test_corrupt_dump_exits_4(self, capsys, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + b"\0" * 30)
        code, _, _ = run(
            capsys,
            ["replay", "--in", str(bad), "--p", "0.1", "--K", "2",
             "--rix", "0.5304", "--rin", "0.4", "--rout", "0.8"],
        )
        assert code == 4


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
