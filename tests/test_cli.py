import argparse
import csv
import inspect
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from scopesets import cli
from scopesets.cli import main, parse_config, UsageError
from scopesets.dist import Rng
from scopesets.domain import Domain, Field, save_field
from scopesets.excursion import ScopeBands
from scopesets.hypotests import BandSpec, Calibration, grt
from scopesets.insig import insig_report
from scopesets.preimage import KPolicy
from scopesets.quantile import column_summary


SIM_CONFIG = """\
# benchmark harness, desk scale
model=C
N_list=30,60
alpha=0.1
methods=oracle,storey,log_kappa(3)
baselines=hommel,bh
reps=120
seed=99
sided=two_sided
"""


def write_data(path, rng, N=60, J=8, mu=0.0):
    data = rng.generator().standard_normal((N, J)) + mu
    np.savetxt(path, data, delimiter=",")
    return data


class TestConfigParsing:
    def test_key_value_lines(self):
        cfg = parse_config("a=1\n# comment\nb = two\n")
        assert cfg == {"a": "1", "b": "two"}

    def test_reports_line_number(self):
        with pytest.raises(UsageError, match="line 2"):
            parse_config("a=1\nnot a pair\n")

    def test_duplicate_key(self):
        with pytest.raises(UsageError, match="duplicate"):
            parse_config("a=1\na=2\n")


class TestSimulateCommand:
    def test_runs_and_is_byte_deterministic(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("modelC_table.csv", "modelC_plotdata.csv", "resolved_config.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        table = (out1 / "modelC_table.csv").read_text().splitlines()
        assert len(table) == 1 + 5 * 2  # header + 5 method rows x 2 sample sizes

    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("model=A\nN_list=30\nreps=10\nmethods=oracle\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_resolved_config_reruns_identically(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        out1 = tmp_path / "o1"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        cfg2 = tmp_path / "resolved.cfg"
        resolved = (out1 / "resolved_config.txt").read_text()
        resolved = "\n".join(
            line for line in resolved.splitlines() if not line.startswith("J=")
        )
        cfg2.write_text(resolved)
        out2 = tmp_path / "o2"
        main(["simulate", "--config", str(cfg2), "--out", str(out2)])
        assert (out1 / "modelC_table.csv").read_bytes() == (
            out2 / "modelC_table.csv"
        ).read_bytes()


class TestScopeCommand:
    def test_partition_files(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_data(data_path, Rng(1), mu=np.array([0, 0, 0, 0, 1, 1, -1, 0.0]))
        out = tmp_path / "out"
        rc = main(
            ["scope", "--data", str(data_path), "--level", "0", "--alpha", "0.1",
             "--kappa", "3", "--out", str(out)]
        )
        assert rc == 0
        part = (out / "partition.csv").read_text().splitlines()
        assert part[0].startswith("# alpha=")
        classes = [line.split(",")[-1] for line in part if line[0].isdigit()]
        assert len(classes) == 8
        assert classes[4] == "above" and classes[6] == "below"

    def test_zero_variance_column_exits_1(self, tmp_path, capsys):
        data = np.zeros((10, 3))
        data[:, 1] = np.arange(10)
        data[:, 2] = np.arange(10) ** 1.3
        path = tmp_path / "flat.csv"
        np.savetxt(path, data, delimiter=",")
        rc = main(["scope", "--data", str(path), "--level", "0", "--kappa", "3",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "column 0" in capsys.readouterr().err

    def test_seeded_reruns_identical(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_data(data_path, Rng(2))
        o1, o2 = tmp_path / "a", tmp_path / "b"
        for o in (o1, o2):
            main(["scope", "--data", str(data_path), "--level", "0", "--kappa", "3",
                  "--seed", "5", "--out", str(o)])
        assert (o1 / "partition.csv").read_bytes() == (o2 / "partition.csv").read_bytes()

    def test_heights_measure_the_distance_to_the_crossed_edge(self, tmp_path):
        # columns 0-3 sit below the lower edge 0.5, 8-11 above the upper edge 3; the
        # infinite edges at 0 and 11 are never crossed, and at 5 both edges are +inf
        data_path = tmp_path / "d.csv"
        data = write_data(data_path, Rng(5), N=50, J=12, mu=np.repeat([-1.0, 2.0, 5.0], 4))
        dom = Domain(12)
        lower = np.where(np.arange(12) == 0, -np.inf, 0.5)
        upper = np.where(np.arange(12) == 11, np.inf, 3.0)
        lower[5] = upper[5] = np.inf
        save_field(Field(dom, lower), tmp_path / "lo.csv")
        save_field(Field(dom, upper), tmp_path / "hi.csv")
        runs = {"band": (["--lower", str(tmp_path / "lo.csv"), "--upper", str(tmp_path / "hi.csv")],
                         lower, upper),
                "level": (["--level", "2"], np.full(12, 2.0), np.full(12, 2.0))}
        mean, sd = data.mean(axis=0), data.std(axis=0, ddof=1)
        for name, (flags, lo, hi) in runs.items():
            out = tmp_path / name
            assert main(["scope", "--data", str(data_path), *flags, "--k", "1",
                         "--out", str(out)]) == 0
            lines = (out / "detections.csv").read_text().splitlines()
            rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
            for r in rows:
                j = int(r["index"])
                edge = (lo if r["direction"] == "below" else hi)[j]
                expected = np.sqrt(50) * abs(mean[j] - edge) / sd[j]
                assert float(r["height"]) == pytest.approx(expected, rel=1e-5)
            if name == "band":
                assert [(int(r["index"]), r["direction"]) for r in rows] == [
                    (1, "below"), (2, "below"), (3, "below"), (5, "below"),
                    (8, "above"), (9, "above"), (10, "above")]
                assert rows[3]["height"] == "inf"
            else:
                assert {r["direction"] for r in rows} == {"below", "above"}

    def test_policy_flags_are_exclusive(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        write_data(data_path, Rng(3))
        rc = main(["scope", "--data", str(data_path), "--level", "0",
                   "--kappa", "3", "--k", "1.0", "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("edges", [["--lower", "lo.csv", "--upper", "missing.csv"],
                                       ["--lower", "lo.csv"], ["--upper", "missing.csv"]])
    def test_a_level_with_an_edge_file_exits_2(self, tmp_path, capsys, edges):
        # the level would silently win over the edge files, which are never opened
        data_path = tmp_path / "d.csv"
        write_data(data_path, Rng(3))
        save_field(Field(Domain(8), np.zeros(8)), tmp_path / "lo.csv")
        rc = main(["scope", "--data", str(data_path), "--level", "0", "--kappa", "3",
                   *(str(tmp_path / e) if e.endswith(".csv") else e for e in edges),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1 and "not both" in err
        assert not (tmp_path / "o").exists()

    def test_a_lower_edge_above_the_upper_edge_exits_2(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        write_data(data_path, Rng(3))
        save_field(Field(Domain(8), np.r_[np.zeros(7), 1.0]), tmp_path / "lo.csv")
        save_field(Field(Domain(8), np.full(8, 0.5)), tmp_path / "hi.csv")
        rc = main(["scope", "--data", str(data_path), "--lower", str(tmp_path / "lo.csv"),
                   "--upper", str(tmp_path / "hi.csv"), "--kappa", "3",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == ("error: lower threshold exceeds upper threshold "
                                           "somewhere\n")
        assert not (tmp_path / "o").exists()


class TestInsigCommand:
    def test_report_row(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_data(data_path, Rng(4), N=100, J=20,
                   mu=np.concatenate([np.zeros(15), 0.8 * np.ones(5)]))
        out = tmp_path / "out"
        rc = main(["insig", "--data", str(data_path), "--alpha", "0.1",
                   "--kappa", "3", "--out", str(out)])
        assert rc == 0
        lines = (out / "insig_report.csv").read_text().splitlines()
        assert lines[0].split(",")[:2] == ["k", "q_hat"]
        assert len(lines) == 2


class TestScheffeCommand:
    def test_analytic_zero_vector_value(self, tmp_path, capsys):
        rc = main(["scheffe", "--K", "4", "--alpha", "0.05", "--out", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out
        value = float(printed.strip().split("=")[-1])
        assert value == pytest.approx(0.1, abs=0.005)

    def test_fit_mode(self, tmp_path):
        gen = Rng(8).generator()
        N = 60
        X = gen.standard_normal((N, 2))
        y = X @ np.array([1.0, 0.0]) + 0.5 * gen.standard_normal(N)
        rows = ["x1,x2,y"] + [
            f"{X[i, 0]},{X[i, 1]},{y[i]}" for i in range(N)
        ]
        path = tmp_path / "lm.csv"
        path.write_text("\n".join(rows) + "\n")
        rc = main(["scheffe", "--data", str(path), "--alpha", "0.05",
                   "--out", str(tmp_path)])
        assert rc == 0
        table = (tmp_path / "scheffe_fit.csv").read_text().splitlines()
        assert table[0] == "coef,estimate,band_lo,band_hi"
        est = float(table[1].split(",")[1])
        assert est == pytest.approx(1.0, abs=0.3)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x1,y\n1.0,2.0\n3.0,abc\n4.0,5.0\n", "line 3"),
            ("x,y\n1,2\n3,4,5\n", "line 3: 3 fields, header has 2"),
            ("", "at least two rows"),
            ("x1,y\n", "at least two rows"),
            ("x1,y\n1.0,2.0\n3.0,nan\n4.0,5.0\n", "non-finite value at row 1, column 1"),
            ("y\n1.0\n2.0\n4.0\n", "scheffe data must have >= 2 columns"),
        ],
        ids=["non_numeric", "ragged", "empty", "header_only", "nan", "one_column"],
    )
    def test_malformed_data_exits_2_naming_the_line(self, tmp_path, capsys, text, expected):
        path = tmp_path / "lm.csv"
        path.write_text(text)
        rc = main(["scheffe", "--data", str(path), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err
        assert len(err.strip().splitlines()) == 1


SAMPLE_ARGS = {
    "scope": ["--level", "0", "--kappa", "3"],
    "insig": ["--kappa", "3"],
    "tests": ["--kind", "lrT", "--b-minus", "-1", "--b-plus", "1"],
}


@pytest.mark.parametrize("command", sorted(SAMPLE_ARGS))
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_sample_cell_exits_2_naming_it(tmp_path, capsys, command, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"1.0,2.0\n3.0,4.0\n5.0,{cell}\n")
    rc = main([command, "--data", str(path), *SAMPLE_ARGS[command],
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}: non-finite value at row 2, column 1\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", sorted(SAMPLE_ARGS))
def test_empty_sample_file_exits_2_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "d.csv"
    path.write_text("")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, "--data", str(path), *SAMPLE_ARGS[command],
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: {path}: data must have at least two rows\n"


POLICY_FLAG_ERRORS = [
    ["--kappa", "0"],
    ["--kappa", "inf"],
    ["--k", "-1"],
    ["--scb-beta", "1.5"],
    ["--scb-beta", "1e-17"],
    ["--kappa", "3", "--alpha", "0"],
    ["--kappa", "3", "--alpha", "1.5"],
    ["--kappa", "3", "--alpha", "1e-17"],
]
# field files for J = 5; a bad one must be named in the error line
FIELD_FILES = {
    "ok.csv": "index,value\n0,0\n1,0\n2,0\n3,0\n4,0\n",
    "abc.csv": "index,value\n0,0\n1,abc\n2,0\n3,0\n4,0\n",
    "nan.csv": "index,value\n0,0\n1,0\n2,nan\n3,0\n4,0\n",
    "dup.csv": "index,value\n0,0\n1,0\n1,0\n3,0\n4,0\n",
    "gap.csv": "index,value\n0,0\n1,0\n2,0\n3,0\n5,0\n",
    "short.csv": "index,value\n0,0\n1,0\n2,0\n3,0\n",
}
BAD_FLAG_CASES = [
    *((["scope", "--level", "0"], flags) for flags in POLICY_FLAG_ERRORS),
    *((["insig"], flags) for flags in POLICY_FLAG_ERRORS),
    *((["tests", *SAMPLE_ARGS["tests"]], flags)
      for flags in (["--kappa", "0"], ["--kappa", "inf"], ["--alpha", "0"], ["--alpha", "1.5"],
                    ["--alpha", "2"], ["--alpha", "1e-17"], ["--b-minus", "nan"],
                    ["--b-minus", "1", "--b-plus", "0"])),
    (["scope", "--kappa", "3"], ["--level", "nan"]),
    *((["scope", "--kappa", "3"], flags)
      for flags in (["--lower", "abc.csv", "--upper", "ok.csv"],
                    ["--lower", "ok.csv", "--upper", "nan.csv"],
                    ["--lower", "dup.csv", "--upper", "ok.csv"],
                    ["--lower", "ok.csv", "--upper", "gap.csv"],
                    ["--lower", "short.csv", "--upper", "ok.csv"])),
    *((["tests", *SAMPLE_ARGS["tests"]], ["--mu", name])
      for name in ("abc.csv", "nan.csv", "dup.csv", "gap.csv", "short.csv")),
]


@pytest.mark.parametrize(
    "command,flags", BAD_FLAG_CASES, ids=[" ".join([c[0], *f]) for c, f in BAD_FLAG_CASES]
)
def test_bad_flag_value_exits_2_with_one_line(tmp_path, capsys, command, flags):
    path = tmp_path / "d.csv"
    write_data(path, Rng(4), N=20, J=5)
    for name, text in FIELD_FILES.items():
        (tmp_path / name).write_text(text)
    bad_files = [str(tmp_path / f) for f in flags if f in FIELD_FILES and f != "ok.csv"]
    flags = [str(tmp_path / f) if f in FIELD_FILES else f for f in flags]
    rc = main([*command, "--data", str(path), *flags, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert all(f in err for f in bad_files)
    assert not (tmp_path / "o").exists()


SCHEFFE_FLAG_ERRORS = [
    (["--K", "1"], "--K must be >= 2"),
    (["--K", "3", "--alpha", "2"], "alpha must be in (0, 1), got 2.0"),
    (["--K", "3", "--alpha", "0"], "alpha must be in (0, 1), got 0.0"),
    (["--K", "3", "--alpha", "1e-17"], "--alpha must be >= 2**-52, got 1e-17"),
    ([], "analytic mode needs --K"),
    (["--data", "lm.csv", "--alpha", "2"], "alpha must be in (0, 1), got 2.0"),
]


@pytest.mark.parametrize(
    "flags,expected", SCHEFFE_FLAG_ERRORS, ids=[" ".join(f) or "none" for f, _ in SCHEFFE_FLAG_ERRORS]
)
def test_bad_scheffe_flag_exits_2_with_one_line(tmp_path, capsys, flags, expected):
    (tmp_path / "lm.csv").write_text("x1,x2,y\n1,0,1\n0,1,2\n1,1,2\n2,1,4\n")
    flags = [str(tmp_path / f) if f == "lm.csv" else f for f in flags]
    rc = main(["scheffe", *flags, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and expected in err
    assert not (tmp_path / "o").exists()


SIM_CONFIG_ERRORS = [
    ("reps=abc", "'reps'"),
    ("alpha=x", "'alpha'"),
    ("N_list=30,x", "'N_list'"),
    ("N_list=30,1", "N_list must be >= 2, got 1"),
    ("J=8.5", "'J'"),
    ("seed=-1", "seed must be >= 0"),
    ("methods=log_kappa(x)", "log_kappa(x)"),
    ("methods=scb(y)", "scb(y)"),
    ("methods=log_kappa(inf)", "finite kappa"),
    ("baselines=bh,bh,hommel", "duplicate method or baseline 'bh'"),
    ("alpha=1e-17", "config key 'alpha' must be >= 2**-52, got 1e-17"),
    ("=5", "line 10: empty key"),
]


@pytest.mark.parametrize("line,expected", SIM_CONFIG_ERRORS, ids=[c for c, _ in SIM_CONFIG_ERRORS])
def test_bad_simulate_config_value_exits_2_naming_it(tmp_path, capsys, line, expected):
    key = line.split("=", 1)[0]
    kept = [row for row in SIM_CONFIG.splitlines() if not row.startswith(key + "=")]
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("\n".join([*kept, line]) + "\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and expected in err
    assert not (tmp_path / "o").exists()


OUT_RUNS = {
    "simulate": ["--config", "sim.cfg"],
    "scope": ["--data", "d.csv", *SAMPLE_ARGS["scope"]],
    "insig": ["--data", "d.csv", *SAMPLE_ARGS["insig"]],
    "scheffe": ["--K", "3"],
    "scheffe_fit": ["--data", "lm.csv"],
    "tests": ["--data", "d.csv", *SAMPLE_ARGS["tests"]],
}


@pytest.mark.parametrize("run", sorted(OUT_RUNS))
def test_out_under_a_regular_file_exits_1_with_one_line(tmp_path, capsys, run):
    # the output directory cannot be made, which is a runtime failure, not a usage error
    write_data(tmp_path / "d.csv", Rng(4), N=20, J=5)
    (tmp_path / "sim.cfg").write_text(SIM_CONFIG.replace("reps=120", "reps=10"))
    (tmp_path / "lm.csv").write_text("x1,x2,y\n1,0,1\n0,1,2\n1,1,2\n2,1,4\n")
    (tmp_path / "file").write_text("")
    flags = [str(tmp_path / f) if f.endswith((".csv", ".cfg")) else f for f in OUT_RUNS[run]]
    rc = main([run.split("_")[0], *flags, "--out", str(tmp_path / "file" / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "file" in err


def test_every_output_file_has_lf_line_endings(tmp_path):
    data = tmp_path / "d.csv"
    write_data(data, Rng(5), N=40, J=6, mu=0.3)
    dom = Domain(6)
    save_field(Field.constant(dom, -0.2), tmp_path / "lower.csv")
    save_field(Field.constant(dom, 0.2), tmp_path / "upper.csv")
    save_field(Field.constant(dom, 0.3), tmp_path / "mu.csv")
    lm = tmp_path / "lm.csv"
    lm.write_text("x1,x2,y\n1,0,1.1\n0,1,2.2\n1,1,2.9\n2,1,4.2\n1,2,4.8\n")
    (tmp_path / "sim.cfg").write_text(SIM_CONFIG.replace("reps=120", "reps=20"))
    out = tmp_path / "out"
    d = ["--data", str(data)]
    runs = [
        ["simulate", "--config", str(tmp_path / "sim.cfg")],
        ["scope", *d, "--level", "0", "--kappa", "3"],
        ["scope", *d, "--lower", str(tmp_path / "lower.csv"), "--upper", str(tmp_path / "upper.csv"),
         "--kappa", "3"],
        ["insig", *d, "--kappa", "3"],
        ["scheffe", "--K", "3"],
        ["scheffe", "--data", str(lm)],
        ["tests", *d, "--kind", "lrT", "--b-minus", "-1", "--b-plus", "1"],
        ["tests", *d, "--kind", "leT", "--b-minus", "-1", "--b-plus", "1",
         "--mu", str(tmp_path / "mu.csv")],
    ]
    for i, argv in enumerate(runs):
        assert main([*argv, "--out", str(out / str(i))]) == 0, argv
    files = sorted(tmp_path.glob("*.csv")) + sorted(p for p in out.rglob("*") if p.is_file())
    assert len(files) == 17
    assert [f.name for f in files if b"\r" in f.read_bytes()] == []


class TestTestsCommand:
    def test_let_matches_interval_rule(self, tmp_path):
        gen = Rng(9).generator()
        N = 200
        data = (0.1 * gen.standard_normal(N)).reshape(-1, 1)
        path = tmp_path / "scalar.csv"
        np.savetxt(path, data, delimiter=",")
        rc = main(["tests", "--data", str(path), "--kind", "leT",
                   "--b-minus", "-1", "--b-plus", "1", "--alpha", "0.1",
                   "--out", str(tmp_path)])
        assert rc == 0
        row = (tmp_path / "test_decision.csv").read_text().splitlines()[1].split(",")
        q = float(row[1])
        mean = data.mean()
        sd = data.std(ddof=1)
        inside = -1 + q * sd / np.sqrt(N) < mean < 1 - q * sd / np.sqrt(N)
        assert (row[4] == "0") == inside

    def test_unknown_kind_exits_2(self, tmp_path):
        path = tmp_path / "d.csv"
        np.savetxt(path, np.random.default_rng(0).normal(size=(10, 1)), delimiter=",")
        rc = main(["tests", "--data", str(path), "--kind", "zzz",
                   "--b-minus", "-1", "--b-plus", "1"])
        assert rc == 2

    def test_et_needs_mu_before_reading_data(self, tmp_path, capsys):
        # plug-in eT does not hold alpha (0.04 / 0.16 familywise at N = 100 / 1000), so the
        # command line runs it only against a known target
        rc = main(["tests", "--data", str(tmp_path / "missing.csv"), "--kind", "eT",
                   "--b-minus", "-1", "--b-plus", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: eT needs --mu: plug-in eT does not hold its level\n"
        assert not (tmp_path / "o").exists()
        data, mu = tmp_path / "d.csv", tmp_path / "mu.csv"
        np.savetxt(data, np.random.default_rng(0).normal(size=(30, 4)), delimiter=",")
        save_field(Field.constant(Domain(4), 0.5), mu)
        assert main(["tests", "--data", str(data), "--kind", "eT", "--b-minus", "-1",
                     "--b-plus", "1", "--mu", str(mu), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "test_decision.csv").read_text().startswith("kind,")

    def test_plugin_grt_runs_without_mu(self, tmp_path, capsys):
        # plug-in grT reads the partition's touch sets, which hold alpha, so it needs no --mu;
        # the row is the library's plug-in decision on the column summaries
        N, J = 30, 4
        data = np.random.default_rng(0).normal(size=(N, J))
        data[:, 1] += 1.5  # one column well above the band
        np.savetxt(tmp_path / "d.csv", data, delimiter=",")
        assert main(["tests", "--data", str(tmp_path / "d.csv"), "--kind", "grT",
                     "--b-minus", "-0.5", "--b-plus", "0.5", "--out", str(tmp_path / "o")]) == 0
        dom = Domain(J)
        mean, sd = column_summary(data)
        band = BandSpec(Field.constant(dom, -0.5), Field.constant(dom, 0.5))
        dec = grt(Field(dom, mean), band, ScopeBands(0.0, 1 / np.sqrt(N), Field(dom, sd)),
                  quantile=Calibration(cov=("iid_t", N - 1), k=np.log(N) / 3))
        assert dec.global_reject is True
        row = (tmp_path / "o" / "test_decision.csv").read_text().splitlines()[1].split(",")
        assert row == ["grT", cli._fmt(dec.quantile_used.q), cli._fmt(dec.delta), "1",
                       ";".join(str(i) for i in dec.rejected)]

    @pytest.mark.parametrize("kind", ["eT", "leT"])
    def test_zero_width_band_exits_2_before_reading_data(self, tmp_path, capsys, kind):
        # the data path does not exist: the band is rejected before it is opened
        rc = main(["tests", "--data", str(tmp_path / "missing.csv"), "--kind", kind,
                   "--b-minus", "0", "--b-plus", "0", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {kind} needs --b-minus < --b-plus, got 0.0 twice\n"
        assert not (tmp_path / "o").exists()


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_every_flag_is_read_by_its_own_command():
    # a flag whose value its command never reads changes nothing and should not exist;
    # the one exception is --seed, which only simulate reads (the others draw nothing)
    sub = _subparsers(cli.build_parser())
    unread = set()
    for name, parser in sub.choices.items():
        source = inspect.getsource(parser.get_default("fn"))
        # helpers the command hands its args to read flags on its behalf
        for helper in re.findall(r"(?<!def )\b(\w+)\(args\)", source):
            source += inspect.getsource(getattr(cli, helper))
        dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        unread |= {(name, d) for d in dests if not re.search(rf"\bargs\.{d}\b", source)}
    assert unread == {(name, "seed") for name in ("scope", "insig", "scheffe", "tests")}
    for name in ("scope", "insig", "scheffe", "tests"):
        assert "only simulate reads --seed" in " ".join(sub.choices[name].format_help().split())


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_one_command_parser_helps_as_the_full_one(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    full = _subparsers(cli.build_parser()).choices[command]
    alone = _subparsers(cli.build_parser(command)).choices
    assert list(alone) == [command]
    assert alone[command].format_help() == full.format_help()
    assert alone[command].format_usage() == full.format_usage()


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["bogus"], ["--bogus"], ["simul"], ["-x", "simulate"],
    ["simulate"], ["simulate", "-h"], ["simulate", "--config"], ["simulate", "--con", "x.txt"],
    ["simulate", "--config", "missing.txt", "--bogus"], ["simulate", "--seed", "x"],
    ["scope", "--help"], ["scope", "--data", "d.csv", "--bogus", "1"],
    ["scope", "--data", "missing.csv", "--level", "0", "--kappa", "3", "--sided", "two_sided"],
    ["scope", "--data", "d.csv", "--sided", "three"], ["insig", "-h"],
    ["insig", "--data", "missing.csv", "--kappa", "3", "--sided", "two_sided"],
    ["insig", "--kappa", "x"], ["scheffe", "--K", "x"], ["scheffe", "--K", "1"],
    ["tests", "-h"], ["tests", "--kind", "zz"], ["scope", "simulate"],
])
def test_help_usage_and_errors_read_as_from_the_full_parser(monkeypatch, capsys, tmp_path, argv):
    # main builds only the named command's flags; every byte and exit code stays the full
    # parser's, including the top usage line that lists every command
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    full, outcomes = cli.build_parser, []
    for build in (full, lambda command=None: full()):
        monkeypatch.setattr(cli, "build_parser", build)
        outcomes.append((main(list(argv)), *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0][0] == 0) == any(a in ("-h", "--help") for a in argv)


def test_a_named_command_builds_only_its_own_flags(monkeypatch, tmp_path):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(real(command))
                        or built[-1])
    assert main(["simulate", "--config", str(tmp_path / "missing.txt")]) == 2
    (parser,) = built
    (sim,) = _subparsers(parser).choices.values()
    assert sim.prog == "scopesets simulate"
    assert {a.dest for a in sim._actions} == {"help", "config", "out", "seed"}


@pytest.mark.parametrize("flags", [
    ["scope", "--level", "0", "--scb-beta", "1e-15"],
    ["scope", "--level", "0", "--kappa", "3", "--alpha", "1e-15", "--sided", "two_sided"],
    ["insig", "--kappa", "3", "--alpha", "1e-15"],
])
def test_tiny_alpha_whose_per_point_level_rounds_to_1_exits_0(tmp_path, capsys, flags):
    data_path = tmp_path / "d.csv"
    write_data(data_path, Rng(8), N=20, J=100, mu=np.repeat([2.0, 0.0], [5, 95]))
    assert main([*flags, "--data", str(data_path), "--out", str(tmp_path / "o")]) == 0
    out = tmp_path / "o"
    if flags[0] == "scope":
        lines = (out / "partition.csv").read_text().splitlines()
        meta = dict(line[2:].split("=") for line in lines if line.startswith("# "))
    else:
        meta = next(csv.DictReader((out / "insig_report.csv").read_text().splitlines()))
    assert np.isfinite(float(meta["k"])) and np.isfinite(float(meta["q_hat"]))
    assert float(meta["q_hat"]) > 0


@pytest.mark.parametrize("alpha", ["1e-15", "2.220446049250313e-16"])
def test_simulate_with_a_tiny_alpha_exits_0(tmp_path, capsys, alpha):
    # the per-point levels (1 - alpha)^(1/m) of its tables and the step-up levels
    # 1 - alpha/(2J) of its baselines round to 1: both are solved on their tails
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG.replace("alpha=0.1", f"alpha={alpha}").replace("reps=120", "reps=20")
                   .replace("sided=two_sided", "sided=both"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rows = list(csv.DictReader((tmp_path / "o" / "modelC_table.csv").read_text().splitlines()))
    assert len(rows) == 2 * (2 * 3 + 2)
    assert all(row["cov"] == "100.0" for row in rows if row["method"] not in ("hommel", "bh"))


@pytest.mark.parametrize("sided", ["one_sided", "two_sided"])
@pytest.mark.parametrize("flags, policy", [
    (["--kappa", "3"], KPolicy("log_over_kappa", kappa=3.0)),
    (["--scb-beta", "0.2"], KPolicy("scb_level", beta=0.2)),
    (["--k", "1.2"], KPolicy("fixed", k=1.2)),
])
def test_scope_at_level_zero_and_insig_share_one_partition(tmp_path, capsys, flags, policy, sided):
    data_path = tmp_path / "d.csv"
    write_data(data_path, Rng(6), N=40, J=30, mu=np.repeat([-0.6, 0.0, 0.4], 10))
    # --sided is read and ignored: the touch sets fix each point's law
    common = ["--data", str(data_path), *flags, "--sided", sided, "--alpha", "0.1"]
    assert main(["scope", *common, "--level", "0", "--out", str(tmp_path / "s")]) == 0
    assert main(["insig", *common, "--out", str(tmp_path / "i")]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("warning: --sided is ignored") == 2
    printed = dict(item.split("=") for item in captured.out.split())
    lines = (tmp_path / "s" / "partition.csv").read_text().splitlines()
    meta = dict(line[2:].split("=") for line in lines if line.startswith("# "))
    row = next(csv.DictReader((tmp_path / "i" / "insig_report.csv").read_text().splitlines()))
    assert meta["k"] == row["k"] == printed["k"]
    assert meta["q_hat"] == row["q_hat"] == printed["q_hat"]
    report = insig_report(np.loadtxt(data_path, delimiter=","), 0.1, policy)
    assert int(meta["m_hat"]) == report.m_hat
    detections = (tmp_path / "s" / "detections.csv").read_text().splitlines()
    n_rows = len([line for line in detections if not line.startswith("#")]) - 1
    assert n_rows == int(row["n_scope"]) == report.m1 > 0


@pytest.mark.parametrize("command", [["scope", "--level", "0"], ["insig"]])
def test_the_sided_flag_changes_no_output_byte(tmp_path, capsys, command):
    data_path = tmp_path / "d.csv"
    write_data(data_path, Rng(6), N=40, J=30, mu=np.repeat([-0.6, 0.0, 0.4], 10))
    outputs = []
    for sided in ([], ["--sided", "one_sided"], ["--sided", "two_sided"]):
        out = tmp_path / "_".join(["o", *sided])
        assert main([*command, "--data", str(data_path), "--kappa", "3", *sided,
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: --sided is ignored: the touch sets fix each point's "
                                "law\n" if sided else "")
        outputs.append((captured.out, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert outputs[0] == outputs[1] == outputs[2]
    assert all(b"sided" not in body for body in outputs[0][1].values())
