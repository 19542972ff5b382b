import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from declab import cli
from declab.cli import (EXIT_OK, EXIT_SCHEMA, ConfigError, load_config, main)


def write_config(path, **overrides):
    cfg = {
        "v": 1,
        "seed": 42,
        "scenarios": [{"kind": "flat-line", "N": [16], "p": [6]}],
        "sampler": {"strategy": "mc", "budget": 2048, "seed": 42},
        "outputs": {},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def test_measure_minimal_config(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path)
    out = tmp_path / "report.json"
    csv_path = tmp_path / "rows.csv"
    t0 = time.time()
    rc = main(["measure", "--config", str(cfg_path), "--out", str(out),
               "--csv", str(csv_path)])
    assert rc == EXIT_OK
    assert time.time() - t0 < 60
    payload = json.loads(out.read_text())
    assert payload["v"] == 1
    assert len(payload["reports"]) == 1
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0].startswith("kind,N,p,lhs")
    assert len(rows) == 2


def test_measure_byte_identical_rerun(tmp_path):
    # a repeated N runs once; rows come out in (scenario, N) order
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, scenarios=[
        {"kind": "flat-line", "N": [64, 16, 16], "p": [6]},
        {"kind": "indicator", "N": [16], "p": [6]},
    ])
    outs = []
    for k in range(2):
        csv_path = tmp_path / f"rows{k}.csv"
        rc = main(["measure", "--config", str(cfg_path), "--csv", str(csv_path)])
        assert rc == EXIT_OK
        outs.append(csv_path.read_bytes())
    assert outs[0] == outs[1]
    rows = list(csv.DictReader(outs[0].decode().splitlines()))
    assert [(r["kind"], r["N"]) for r in rows] == [
        ("flat-line", "16"), ("flat-line", "64"), ("indicator", "16")]


def test_unknown_key_rejected(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, extra_knob=3)
    rc = main(["measure", "--config", str(cfg_path)])
    assert rc == EXIT_SCHEMA


def test_missing_seed_rejected(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg = json.loads(cfg_path.read_text()) if cfg_path.exists() else None
    cfg_path.write_text(json.dumps({
        "v": 1,
        "scenarios": [{"kind": "indicator"}],
    }))
    with pytest.raises(ConfigError):
        load_config(str(cfg_path))


def test_bad_scenario_kind_rejected(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, scenarios=[{"kind": "mystery"}])
    rc = main(["measure", "--config", str(cfg_path)])
    assert rc == EXIT_SCHEMA


def test_p2_ratios_near_one(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path,
                 scenarios=[{"kind": "indicator", "N": [64], "p": [2]}],
                 sampler={"strategy": "mc", "budget": 4096, "seed": 7})
    out = tmp_path / "report.json"
    rc = main(["measure", "--config", str(cfg_path), "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())["reports"][0]
    # orthogonality at the cap scale keeps the p=2 ratio near one
    assert abs(rep["ratio_lp"] - 1.0) < 0.25


def test_example_subcommand(capsys):
    rc = main(["example", "--kind", "flat-line", "--N", "64", "--p", "6",
               "--budget", "2048"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "flat-line"


@pytest.mark.parametrize("argv", [
    ["--kind", "indicator", "--N", "16", "--budget", "10"],
    ["--kind", "indicator", "--N", "0"],
    ["--kind", "strip", "--K", "3"],
    ["--kind", "strip", "--K", "0"],
    ["--kind", "indicator", "--N", "16", "--center", "1,a"],
    ["--kind", "indicator", "--N", "16", "--center", "0,0"],
    ["--kind", "parabola-2d", "--N", "16", "--center", "0,0,0,0"],
    ["--kind", "flat-line", "--N", "64", "--center", "nan,0,0,0"],
    ["--kind", "indicator", "--N", "16", "--center", "inf,0,0,0"],
    ["--kind", "strip", "--K", "4", "--center", "0,-inf,0,0"],
    ["--kind", "parabola-2d", "--N", "16", "--center", "0,nan"],
    ["--kind", "indicator", "--N", "16", "--budget", "1024", "--seed", "-1"],
    ["--kind", "indicator", "--N", "16", "--p", "inf"],
    ["--kind", "indicator", "--N", "inf"],
    ["--kind", "bilinear-pair", "--nu", "0.3"],
    ["--kind", "indicator", "--N", "16", "--p", "0.5"],
], ids=["budget=10", "N=0", "strip-K=3", "strip-K=0", "center=1,a",
        "indicator-2d-center", "parabola-4d-center", "flat-line-nan-center",
        "indicator-inf-center", "strip-minus-inf-center", "parabola-nan-center",
        "seed=-1", "p=inf", "N=inf", "bilinear-pair-nu=0.3", "p=0.5"])
def test_example_bad_input_is_a_config_error(capsys, argv):
    # every case fails before any sampling
    rc = main(["example", *argv])
    assert rc == EXIT_SCHEMA
    out = capsys.readouterr()
    assert out.err.startswith("config error: ") and out.err.count("\n") == 1
    assert out.out == ""


@pytest.mark.parametrize("argv", [
    ["transversality", "--A", "1,0,0,0,0,1", "--K", "12"],
    ["transversality", "--A", "1,0,0,0,0,1", "--K", "0"],
    ["rescale-check", "--A", "1,0,0,0,0.5,0", "--R", "0.5,0.5,0"],
    ["rescale-check", "--A", "1,0,0,0,0.5,0", "--R", "0.5,0.5,-0.125"],
    ["rescale-check", "--A", "1,0,0,0,0.5,0", "--R", "0.5,nan,0.125"],
    ["rescale-check", "--A", "1,0,0,0,0.5,0", "--R", "0.5,0.5,0.125", "--trials", "0"],
    ["exponents", "--p", "3"],
    ["exponents", "--p", "inf"],
    ["exponents", "--p", "6.01", "--s", "1"],
    ["transversality", "--A", "1,0,0,0,0,1", "--K", "8", "--nu=-1"],
    ["transversality", "--A", "1,0,0,0,0,1", "--K", "8", "--nu", "nan"],
], ids=["transversality-K=12", "transversality-K=0", "rescale-delta=0",
        "rescale-delta<0", "rescale-b=nan", "rescale-trials=0", "exponents-p=3",
        "exponents-p=inf", "exponents-s=1", "transversality-nu=-1",
        "transversality-nu=nan"])
def test_subcommand_bad_input_is_a_config_error(capsys, argv):
    rc = main(argv)
    assert rc == EXIT_SCHEMA
    out = capsys.readouterr()
    assert out.err.startswith("config error: ") and out.err.count("\n") == 1
    assert out.out == ""


def test_transversality_subcommand(tmp_path):
    out = tmp_path / "graph.json"
    rc = main(["transversality", "--A", "1,0,0,0,0,1", "--K", "8",
               "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["K"] == 8
    assert len(payload["counts"]) == 8


def test_rescale_check_subcommand(capsys):
    rc = main(["rescale-check", "--A", "1,0,0,0,0.5,0", "--R", "0.25,0.5,0.2",
               "--trials", "100", "--seed", "3"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_residual"] < 1e-9


def test_exponents_subcommand(capsys):
    rc = main(["exponents", "--p", "8", "--s", "12", "--eps", "1e-3"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa"] == pytest.approx(2 / 3)
    assert payload["contradiction"]["closes"]


def test_smoke_subcommand_fast(capsys):
    t0 = time.time()
    rc = main(["smoke"])
    assert rc == EXIT_OK
    assert time.time() - t0 < 10.0
    assert re.search(r"^\[info\] oscillatory kernel throughput ~ \d+M node-samples/s$",
                     capsys.readouterr().out, re.MULTILINE)


def test_smoke_reports_each_kernel_in_its_own_unit(capsys, monkeypatch):
    # the node-samples line runs on a profiled field (quadrature); the
    # closed form of a unit field counts samples, not node-samples
    fields_seen = []
    real = cli.extension_evaluator

    def spy(surface, field, x_max):
        fields_seen.append(field)
        return real(surface, field, x_max)

    monkeypatch.setattr(cli, "extension_evaluator", spy)
    assert main(["smoke"]) == EXIT_OK
    out = capsys.readouterr().out
    assert re.search(r"^\[info\] closed-form chirp throughput ~ \d+k samples/s$",
                     out, re.MULTILINE)
    profiled, unit = fields_seen[-2:]
    assert profiled.g1 is not None and profiled.g2 is not None
    assert unit.g1 is None and unit.g2 is None


def test_slopes_and_plotdata_outputs(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path,
                 scenarios=[{"kind": "flat-line", "N": [64, 256, 1024], "p": [6]}],
                 sampler={"strategy": "mc", "budget": 4096, "seed": 9},
                 outputs={"slopes": str(tmp_path / "slopes.json"),
                          "plotdata": str(tmp_path / "plot.json")})
    rc = main(["measure", "--config", str(cfg_path)])
    assert rc == EXIT_OK
    slopes = json.loads((tmp_path / "slopes.json").read_text())
    entry = slopes["flat-line:p=6"]
    assert entry["ratio"] == "ratio_l2"
    assert 0.1 <= entry["slope"] <= 0.25
    plot = json.loads((tmp_path / "plot.json").read_text())
    assert len(plot["series"][0]["points"]) == 3


def test_slopes_leave_customised_cells_out(tmp_path):
    # two canonical indicator cells and a customised N=16 one: the customised
    # cell measures another surface and field, so it joins no fit
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path,
                 scenarios=[{"kind": "indicator", "N": [16, 64], "p": [6]},
                            {"kind": "indicator", "N": [16], "p": [6],
                             "surface": {"type": "quad", "A": [1, 0, 0, 0, 0.5, 0]},
                             "field": {"mode": "random-phase", "seed": 3}}],
                 sampler={"strategy": "mc", "budget": 1024, "seed": 9},
                 outputs={"slopes": str(tmp_path / "slopes.json"),
                          "plotdata": str(tmp_path / "plot.json")})
    assert main(["measure", "--config", str(cfg_path)]) == EXIT_OK
    assert json.loads((tmp_path / "slopes.json").read_text()) == {}
    plot = json.loads((tmp_path / "plot.json").read_text())
    assert [len(s["points"]) for s in plot["series"]] == [2]
    assert plot["notes"] == [{"kind": "indicator", "N": 16.0,
                              "note": "skipped: customised surface or field"}]


def test_surface_and_field_overrides(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, scenarios=[{
        "kind": "indicator", "N": [16], "p": [6],
        "surface": {"type": "quad", "A": [1, 0, 0, 0, 0.5, 0]},
        "field": {"mode": "random-phase", "seed": 3},
    }])
    out = tmp_path / "report.json"
    rc = main(["measure", "--config", str(cfg_path), "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())["reports"][0]
    assert rep["meta"]["customized"] == ["field", "surface"]


def test_atomic_point_list_field(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, scenarios=[{
        "kind": "indicator", "N": [16], "p": [6],
        "field": {"mode": "atomic", "points": [[0.1, 0.2], [0.6, 0.8]],
                  "amps": [[1, 0], [0, 1]]},
    }])
    rc = main(["measure", "--config", str(cfg_path)])
    assert rc == EXIT_OK


def test_override_on_wrong_kind_rejected(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, scenarios=[{
        "kind": "strip", "surface": {"type": "quad", "A": [1, 0, 0, 0, 0, 1]},
    }])
    rc = main(["measure", "--config", str(cfg_path)])
    assert rc == EXIT_SCHEMA


def test_example_and_one_cell_measure_give_one_report(tmp_path, capsys):
    # both build the spec, its ball and the sampler from the same defaults and
    # run them through run_cell
    assert main(["example", "--kind", "random-phase", "--N", "16", "--budget", "2048",
                 "--seed", "5"]) == EXIT_OK
    example = json.loads(capsys.readouterr().out)
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, seed=5, scenarios=[{"kind": "random-phase", "N": 16}],
                 sampler={"budget": 2048})
    out = tmp_path / "report.json"
    assert main(["measure", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    measured = json.loads(out.read_text())["reports"][0]
    for rep in (example, measured):
        del rep["runtime_ms"]
    assert measured == example


def test_each_override_is_built_once_per_cell(tmp_path, monkeypatch):
    calls = []
    build = cli._build_field

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "_build_field", counted)
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, scenarios=[{"kind": "indicator", "N": [16, 64],
                                       "field": {"mode": "random-phase", "seed": 3}}],
                 sampler={"budget": 1024, "seed": 4})
    assert main(["measure", "--config", str(cfg_path)]) == EXIT_OK
    assert len(calls) == 2


def test_measure_and_example_build_each_scenario_once(tmp_path, capsys, monkeypatch):
    # the specs check themselves, so loading a config builds no bundle: each
    # cell's canonical inputs are built once, by run_cell
    from declab import harness
    calls = []
    build = harness.scenario

    def counted(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(harness, "scenario", counted)
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, scenarios=[{"kind": "indicator", "N": [16, 64]},
                                      {"kind": "bilinear-pair", "N": 16, "p": 4}],
                 sampler={"budget": 1024, "seed": 4})
    assert main(["measure", "--config", str(cfg_path)]) == EXIT_OK
    assert [(s.kind, s.n_scale) for s in calls] == [("indicator", 16), ("indicator", 64),
                                                    ("bilinear-pair", 16)]
    calls.clear()
    assert main(["example", "--kind", "strip", "--K", "4", "--budget", "1024"]) == EXIT_OK
    assert [s.kind for s in calls] == ["strip"]
    capsys.readouterr()


def test_center_period_translation_invariance(capsys):
    # the flat-line kernel is periodic in the second frequency coordinate
    # with period sqrt(N); re-centering the ball by one period reproduces
    # the measurement up to roundoff
    rc = main(["example", "--kind", "flat-line", "--N", "64", "--p", "6",
               "--budget", "4096", "--seed", "5"])
    assert rc == EXIT_OK
    base = json.loads(capsys.readouterr().out)
    rc = main(["example", "--kind", "flat-line", "--N", "64", "--p", "6",
               "--budget", "4096", "--seed", "5", "--center", "0,8,0,0"])
    assert rc == EXIT_OK
    shifted = json.loads(capsys.readouterr().out)
    assert abs(shifted["ratio_l2"] - base["ratio_l2"]) < 1e-9 * base["ratio_l2"]


def test_time_budget_warning_flag(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg = write_config(cfg_path)
    cfg["time_budget_s"] = 0.0
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    rc = main(["measure", "--config", str(cfg_path), "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())["reports"][0]
    assert "budget_warning" in rep["meta"]


def test_numeric_poisoning_exit(tmp_path, monkeypatch):
    from declab import cli
    from declab.norms import PoisonedEstimateError
    import numpy as np

    def boom(spec, sampler, ball=None):
        raise PoisonedEstimateError(np.zeros(4), 0)

    monkeypatch.setattr(cli, "run_cell", boom)
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path)
    rc = main(["measure", "--config", str(cfg_path)])
    assert rc == 3


@pytest.mark.parametrize("scenario, top, message", [
    ({"kind": "indicator", "N": [0]}, None, None),
    ({"kind": "indicator", "N": [-4]}, None, None),
    ({"kind": "indicator", "N": [16], "p": [0.5]}, None, None),
    ({"kind": "strip", "K": 3}, None, None),
    ({"kind": "strip", "K": 0}, None, None),
    ({"kind": "bilinear-pair", "N": [16], "nu": 0.9}, None, None),
    ({"kind": "flat-line", "N": [16]},
     {"sampler": {"strategy": "mc", "budget": 256, "seed": 1}}, None),
    ({"kind": "flat-line", "N": [16]},
     {"sampler": {"strategy": "rqmc", "budget": 2048, "seed": 1}}, None),
    ({"kind": "flat-line", "N": [16]},
     {"sampler": {"proposal": "defensive", "budget": 2048}}, None),
    ({"kind": "flat-line", "N": [16]}, {"sampler": {"chunk": 0, "budget": 2048}}, None),
    ({"kind": "flat-line", "N": [16]}, {"sampler": {"chunk": -4, "budget": 2048}}, None),
    ({"kind": "indicator", "N": [16],
      "field": {"mode": "atomic", "points": [[float("nan"), 0.5], [0.25, 0.75]]}}, None, None),
    ({"kind": "curve-bilinear", "N": [16], "I1": [0, 0.3]}, None, None),
    ({"kind": "curve-bilinear", "N": [16], "I1": [0, 0.25], "I2": [0.2, 0.5]}, None, None),
    ({"kind": "strip", "K": 4.5}, None, None),
    ({"kind": "indicator", "N": [16]},
     {"sampler": {"strategy": "lattice", "budget": 2048}}, None),
    ({"kind": "indicator", "N": [16]}, {"sampler": {"seed": -1, "budget": 2048}}, None),
    ({"kind": "indicator", "N": [16], "p": [float("inf")]}, None, None),
    ({"kind": "indicator", "N": [float("inf")]}, None, None),
    ({"kind": "indicator", "N": []}, None, None),
    ({"kind": "indicator", "N": [16], "p": []}, None, None),
    ({"kind": "strip", "N": [4, 16], "K": 8}, None, None),
    ({"kind": "indicator", "N": [16]}, {"sampler": {"seed": 2.7, "budget": 2048}}, None),
    ({"kind": "indicator", "N": [16]}, {"sampler": {"seed": True, "budget": 2048}}, None),
    ({"kind": "indicator", "N": [16]}, {"sampler": {"budget": 1024.9}}, None),
    ({"kind": "indicator", "N": [16]}, {"sampler": {"budget": 2048.0}}, None),
    ({"kind": "indicator", "N": [16]}, {"sampler": {"budget": True}}, None),
    ({"kind": "indicator", "N": [16]}, {"sampler": {"budget": 2048, "chunk": 4096.7}}, None),
    ({"kind": "indicator", "N": [16]}, {"sampler": {"budget": 2048, "chunk": True}}, None),
    ({"kind": "indicator", "N": [16], "seed": 2.5}, None, None),
    ({"kind": "indicator", "N": [16], "seed": False}, None, None),
    ({"kind": "indicator", "N": [16], "field": {"mode": "random-phase", "seed": 2.5}},
     None, None),
    ({"kind": "indicator", "N": [16], "field": {"mode": "random-phase", "seed": True}},
     None, None),
    ({"kind": "indicator", "N": [16],
      "field": {"mode": "atomic", "points": [[0.1, 0.2]], "amps": [[1]]}}, None,
     "amplitude must be a number or"),
    ({"kind": "indicator", "N": [16],
      "field": {"mode": "atomic", "points": [[0.1, 0.2]], "amps": [[1, 2, 3]]}}, None,
     "amplitude must be a number or"),
    ({"kind": "indicator", "N": [16],
      "field": {"mode": "atomic", "points": [[0.1, 0.2]], "amps": ["1+2j"]}}, None,
     "amplitude must be a number or"),
    ({"kind": "indicator", "N": [16],
      "field": {"mode": "atomic", "points": [[0.1, 0.2]], "amps": [[1, True]]}}, None,
     "amplitude must be a number or"),
    ({"kind": "indicator", "N": [16], "field": {"mode": "atomic"}}, None,
     "missing key 'points' in field"),
    ({"kind": "indicator", "N": [16], "field": {"mode": "atomic", "kind": "flat-line"}}, None,
     "missing key 'N' in field"),
    ({"kind": "indicator", "N": [16], "surface": {"type": "quad"}}, None,
     "missing key 'A' in surface"),
    ({"kind": "indicator", "N": [16], "p": [True]}, None, "p must be a number"),
    ({"kind": "indicator", "N": [True]}, None, "N must be a number"),
    ({"kind": "strip", "K": True}, None, "K must be an integer"),
    ({"kind": "indicator", "N": ["16"]}, None, "N must be a number"),
    ({"kind": "bilinear-pair", "N": [16], "nu": "0.25"}, None, "nu must be a number"),
    ({"kind": "curve-bilinear", "N": [16], "I1": [0, "0.25"]}, None, "I1 must be a number"),
    ({"kind": "indicator", "N": [16],
      "surface": {"type": "quad", "A": [True, 0, 0, 0, 0, 1]}}, None,
     "surface A must be a number"),
    ({"kind": "indicator", "N": [16],
      "surface": {"type": "lift", "I2": [0.75, "1"]}}, None, "surface I2 must be a number"),
    ({"kind": "indicator", "N": [16],
      "field": {"mode": "atomic", "kind": "flat-line", "N": "64"}}, None,
     "field N must be a number"),
    ({"kind": "indicator", "N": [16],
      "field": {"mode": "atomic", "points": [["0.5", 0.5]]}}, None,
     "field point must be a number"),
    ({"kind": "indicator", "N": [16],
      "field": {"mode": "atomic", "kind": "other", "points": [[0.5, 0.5]]}}, None,
     "unknown atomic field kind 'other'"),
    ({"kind": "bilinear-pair", "N": [16], "nu": 0.3}, None,
     "squares are not transverse: min |Q| = 0.25 < 0.3"),
    ({"kind": "bilinear-pair", "N": [16], "nu": -0.1}, None, "needs 0 <= nu < 0.390625"),
    ({"kind": "indicator", "N": [16], "seed": -1}, None, "seed must be >= 0, got -1"),
    ({"kind": "random-phase", "N": [16], "seed": -1}, None, "seed must be >= 0, got -1"),
    ({"kind": "indicator", "N": [16], "field": {"mode": "random-phase", "seed": -1}}, None,
     "field seed must be >= 0, got -1"),
    ({"kind": "flat-line", "N": [16]}, {"outputs": {"report": True}},
     "outputs report must be a non-empty path string"),
    ({"kind": "flat-line", "N": [16]}, {"outputs": {"csv": 1}},
     "outputs csv must be a non-empty path string"),
    ({"kind": "flat-line", "N": [16]}, {"outputs": {"slopes": ""}}, "outputs slopes"),
    ({"kind": "flat-line", "N": [16]}, {"outputs": {"plotdata": None}}, "outputs plotdata"),
], ids=["N=0", "N=-4", "p=0.5", "strip-K=3", "strip-K=0", "nu=0.9", "budget=256",
        "strategy=rqmc", "proposal=defensive", "chunk=0", "chunk=-4", "atomic-nan-point",
        "curve-I1-off-grid", "curve-too-close", "strip-K=4.5", "strategy=lattice",
        "seed=-1", "p=inf", "N=inf", "N-empty", "p-empty", "strip-two-N",
        "sampler-seed=2.7", "sampler-seed=true", "budget=1024.9", "budget=2048.0",
        "budget=true", "chunk=4096.7", "chunk=true", "scenario-seed=2.5",
        "scenario-seed=false", "field-seed=2.5", "field-seed=true", "amps-one-number-list",
        "amps-three-numbers", "amps-string", "amps-bool-part", "field-no-points",
        "flat-line-field-no-N", "quad-surface-no-A", "p=true", "N=true", "strip-K=true",
        "N-string", "nu-string", "curve-I1-string", "quad-A-bool", "lift-I2-string",
        "flat-line-field-N-string", "atomic-point-string", "atomic-kind-other", "nu=0.3",
        "nu=-0.1", "indicator-scenario-seed=-1", "random-phase-scenario-seed=-1",
        "field-seed=-1",
        "outputs-report=true", "outputs-csv=1", "outputs-slopes-empty",
        "outputs-plotdata-null"])
def test_bad_value_rejected_at_load(tmp_path, capsys, scenario, top, message):
    # top: other top-level config entries, in place of the default ones
    cfg_path = tmp_path / "run.json"
    outputs = {"report": str(tmp_path / "report.json"), "csv": str(tmp_path / "rows.csv")}
    overrides = {"scenarios": [scenario], "outputs": outputs, **(top or {})}
    write_config(cfg_path, **overrides)
    with pytest.raises(ConfigError):
        load_config(str(cfg_path))
    rc = main(["measure", "--config", str(cfg_path)])
    assert rc == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message is None or message in err
    assert not any(tmp_path.joinpath(name).exists() for name in ("report.json", "rows.csv"))


@pytest.mark.parametrize("budget", ["10", -1, True, float("nan"), float("inf"), None],
                         ids=["string", "negative", "bool", "nan", "inf", "null"])
def test_bad_time_budget_rejected_at_load(tmp_path, capsys, budget):
    # a string used to fail after the cells had run, and -1 warned on every cell
    cfg_path = tmp_path / "run.json"
    outputs = {"report": str(tmp_path / "report.json"), "csv": str(tmp_path / "rows.csv")}
    write_config(cfg_path, time_budget_s=budget, outputs=outputs)
    with pytest.raises(ConfigError, match="time_budget_s"):
        load_config(str(cfg_path))
    rc = main(["measure", "--config", str(cfg_path)])
    assert rc == EXIT_SCHEMA
    assert "config error" in capsys.readouterr().err
    assert not any(tmp_path.joinpath(name).exists() for name in ("report.json", "rows.csv"))


@pytest.mark.parametrize("ball", [
    {"E": 2},
    {"T": -1},
    {"T": float("inf")},
    {"E": float("nan")},
    {"center": [float("nan"), 0, 0, 0]},
    {"center": [0, float("inf"), 0, 0]},
    {"shape": "box"},
    {"center": [5, 0, 0]},
    {"T": "4"},
    {"E": "100"},
    {"center": [True, 0, 0, 0]},
    {"center": 0},
], ids=["E=2", "T=-1", "T=inf", "E=nan", "center-nan", "center-inf", "shape=box",
        "center-3d", "T-string", "E-string", "center-bool", "center-number"])
def test_bad_ball_rejected_at_load(tmp_path, capsys, ball):
    # each used to pass the load check and fail mid-run with a traceback
    cfg_path = tmp_path / "run.json"
    outputs = {"report": str(tmp_path / "report.json"), "csv": str(tmp_path / "rows.csv")}
    write_config(cfg_path, ball=ball, outputs=outputs)
    with pytest.raises(ConfigError, match="ball|decay|radius|center|trunc|shape"):
        load_config(str(cfg_path))
    rc = main(["measure", "--config", str(cfg_path)])
    assert rc == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not any(tmp_path.joinpath(name).exists() for name in ("report.json", "rows.csv"))


@pytest.mark.parametrize("overrides", [
    {"scenarios": [5]},
    {"sampler": 5},
    {"sampler": []},
    {"ball": None},
    {"outputs": 7},
    {"scenarios": [{"kind": "indicator", "N": [16], "surface": 3}]},
    {"scenarios": [{"kind": "indicator", "N": [16], "field": True}]},
], ids=["scenario-int", "sampler-int", "sampler-list", "ball-null", "outputs-int",
        "surface-int", "field-bool"])
def test_non_object_entry_rejected_at_load(tmp_path, capsys, overrides):
    # each used to exit 1 with a TypeError or AttributeError traceback
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, **overrides)
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_config(str(cfg_path))
    rc = main(["measure", "--config", str(cfg_path)])
    assert rc == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_cli_import_loads_no_scipy():
    # the weight's mass and tail are closed forms; scipy is a test and
    # benchmark dependency only, and importing it would triple a cold start.
    # Cells run serially, so concurrent.futures (and the logging it pulls
    # in) stays off the start-up path too
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, declab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m in ('concurrent.futures', 'logging')))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_golden_config_rows(tmp_path):
    # every scenario kind, a strip, a surface-and-field override and a
    # surface-only override (the scenario supplies the field); the rows were
    # committed from an earlier implementation of the measurement pipeline
    data = Path(__file__).parent / "data"
    csv_path = tmp_path / "rows.csv"
    rc = main(["measure", "--config", str(data / "golden-config.json"),
               "--csv", str(csv_path)])
    assert rc == EXIT_OK
    with open(data / "golden-rows.csv") as fh:
        want = list(csv.reader(fh))
    with open(csv_path) as fh:
        got = list(csv.reader(fh))
    assert len(got) == len(want) and got[0] == want[0]
    for row_got, row_want in zip(got[1:], want[1:]):
        for col, a, b in zip(want[0], row_got, row_want):
            try:
                x, y = float(a), float(b)
            except ValueError:
                assert a == b, (row_want[:2], col)
                continue
            assert abs(x - y) <= 1e-12 * abs(y), (row_want[:2], col, a, b)


def test_readme_config_loads(tmp_path):
    # the README's measurement config is a refactor oracle, so it must stay
    # a config that the CLI accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S)
    assert block is not None
    cfg_path = tmp_path / "readme.json"
    cfg_path.write_text(block.group(1))
    load_config(str(cfg_path))
