"""CLI: config validation diagnostics, artifact schemas, reproducibility."""

import contextlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy

from helpers import run_python
from isackit import __version__
from isackit import cli
from isackit.cli import main, run_experiment, validate_config


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# --------------------------------------------------------------- validation


def _schema_tables():
    """{kind: {param: (default cell, constraint cell)}} from the tables in
    docs/config_schema.md."""
    text = (Path(__file__).parents[1] / "docs" / "config_schema.md").read_text()
    tables = {}
    for section in re.split(r"^### ", text, flags=re.M)[1:]:
        kind = section.split("\n", 1)[0].strip()
        rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \| (.*) \|$", section, flags=re.M)
        tables[kind] = {name: (default, constraint) for name, default, constraint in rows}
    return tables


def _doc_value(cell):
    # the one non-JSON form in the tables is a power of ten, e.g. 10^-0.49
    if cell.startswith("10^"):
        return 10 ** float(cell[3:])
    return json.loads(cell)


def test_config_schema_doc_matches_defaults():
    tables = _schema_tables()
    assert list(cli._DEFAULTS) == list(cli._RUNNERS)
    assert list(tables) == list(cli._EXPERIMENTS)
    for kind, table in tables.items():
        defaults = cli._DEFAULTS[kind]
        assert list(table) == list(defaults), kind
        for name, (default, constraint) in table.items():
            assert _doc_value(default) == defaults[name], f"{kind}.{name}"
            # the constraint restates the validate message, optionally
            # followed by ", <cross-field limit or unit>"
            message = re.sub(r"^must (be an? |lie )", "", cli._CHECKS[name][1])
            assert constraint == message or constraint.startswith(message + ", "), \
                f"{kind}.{name}: {constraint!r} does not start with {message!r}"


def test_shipped_configs_validate():
    configs = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
    loaded = {path.name: cli.load_config(path) for path in configs}
    assert sorted(cfg["experiment"] for cfg in loaded.values()) == sorted(cli._EXPERIMENTS)
    for name, cfg in loaded.items():
        assert validate_config(cfg) == [], name


def test_validate_missing_seed_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"experiment": "mi_mmse"})
    assert main(["validate", cfg]) == 2
    out = capsys.readouterr().out
    assert "seed" in out and "missing" in out


def test_validate_weight_range_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       {"experiment": "case1_rate", "seed": 1,
                        "params": {"weight": 1.5}})
    assert main(["validate", cfg]) == 2
    assert "params.weight" in capsys.readouterr().out


def test_validate_valid_file_prints_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       {"experiment": "mi_mmse", "seed": 3,
                        "params": {"snr_db": [0.0, 10.0]}})
    assert main(["validate", cfg]) == 0
    assert capsys.readouterr().out == ""


def test_validate_config_diagnostics_direct():
    assert validate_config([]) == ["config root must be a JSON object"]
    diags = validate_config({"experiment": "warp", "seed": 1.5,
                             "bogus": 1,
                             "params": {"nope": 2}})
    text = "\n".join(diags)
    assert "unknown kind" in text
    assert "seed: must be a non-negative integer" in text
    assert "bogus: unknown top-level field" in text
    # params of an unknown experiment cannot be checked further
    assert validate_config({"experiment": "case3_sweep", "seed": 0,
                            "params": {"etas": [0.2, 1.5]}}) \
        == ["params.etas: must be a nonempty list of values in [0, 1]"]
    assert validate_config({"experiment": "mi_mmse", "seed": 0}) == []


@pytest.mark.parametrize("kind, params, field", [
    ("case1_rate", {"frame_length": 4, "num_antennas": 8}, "frame_length"),
    ("case1_rate", {"num_users": 5}, "num_users"),
    ("case1_roc", {"frame_length": 4}, "frame_length"),
    ("case1_beampattern", {"num_antennas": 20}, "frame_length"),
    ("case1_aging", {"num_users": 5}, "num_users"),
    ("case3_sweep", {"num_bits": 1, "target_ser": 0.5}, "target_ser"),
    ("case3_sweep", {"target_ser": 0.95}, "target_ser"),
    ("case3_sweep", {"target_pd": 0.005}, "target_pd"),
    ("case3_sweep", {"target_pd": 0.2, "target_pfa": 0.2}, "target_pd"),
    ("mi_mmse", {"snr_db": [0.0, 60.5]}, "snr_db"),
    ("mi_mmse", {"snr_db": [-60.5]}, "snr_db"),
    ("case1_rate", {"snr_db": [60.5]}, "snr_db"),
    ("case1_rate", {"snr_db": [-60.5, 0.0]}, "snr_db"),
    ("case1_aging", {"snr_db": [60.5]}, "snr_db"),
    ("case1_aging", {"snr_db": [-60.5]}, "snr_db"),
    ("case2_snr", {"snr_db": [60.5]}, "snr_db"),
    ("case2_snr", {"snr_db": [-60.5]}, "snr_db"),
    ("case1_roc", {"snr_db_point": 60.5}, "snr_db_point"),
    ("case1_roc", {"snr_db_point": -60.5}, "snr_db_point"),
    ("case2_convergence", {"lr": 1e200}, "lr"),
    ("case2_convergence", {"init_step": 1.5e6}, "init_step"),
    ("case2_snr", {"init_step": 1e200}, "init_step"),
    ("case2_snr", {"lr": 1.5e6}, "lr"),
    ("case3_sweep", {"trials": 2000, "target_ser": 0.92}, "target_ser"),
    ("case3_sweep", {"trials": 1, "target_ser": 1e-9}, "target_ser"),
    ("case3_sweep", {"trials": 2000, "target_pd": 0.03}, "target_pd"),
])
def test_validate_matches_run_on_cross_field_limits(tmp_path, capsys, kind,
                                                    params, field):
    # configs that the runners cannot execute fail validation too
    cfg = write_config(tmp_path / "c.json",
                       {"experiment": kind, "seed": 1, "params": params})
    assert main(["validate", cfg]) == 2
    assert f"params.{field}:" in capsys.readouterr().out
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"params.{field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_SEED_DIAGNOSTIC = "seed: must be a non-negative integer"


@pytest.mark.parametrize("seed", [-1, True])
def test_validate_matches_run_on_seed(tmp_path, capsys, seed):
    cfg = write_config(tmp_path / "c.json", {"experiment": "mi_mmse", "seed": seed})
    assert main(["validate", cfg]) == 2
    assert capsys.readouterr().out == _SEED_DIAGNOSTIC + "\n"
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {_SEED_DIAGNOSTIC}\n"
    assert not (tmp_path / "o").exists()


def test_seed_override_is_validated_before_the_run(tmp_path, capsys):
    # --seed replaces the config seed before the checks: a negative override
    # is refused, and a valid one stands in for an invalid config seed
    good = write_config(tmp_path / "good.json", {"experiment": "mi_mmse", "seed": 3})
    assert main(["run", good, "--seed", "-3", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {_SEED_DIAGNOSTIC}\n"
    assert not (tmp_path / "o").exists()
    bad = write_config(tmp_path / "bad.json",
                       {"experiment": "mi_mmse", "seed": -1, "params": {"snr_db": [0.0]}})
    assert main(["run", bad, "--seed", "0", "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "run_record.json").read_text())["seed"] == 0


# Small Case II runs, and each field whose validate check has a finite
# bound, at that bound: the positive integers at 1, the SNR limits and the
# step-size limits.
_CASE2_SMALL = {"num_antennas": 4, "num_chains": 2, "num_users": 2,
                "num_layers": 3, "num_train": 10, "num_test": 5, "epochs": 2,
                "batch_size": 5}
_CASE2_BOUNDS = [(kind, field, value)
                 for kind in ("case2_convergence", "case2_snr")
                 for field, value in [(name, 1) for name in _CASE2_SMALL]
                 + [("lr", 1e6), ("init_step", 1e6)]] + [
    ("case2_snr", "snr_db", [-60.0, 60.0])]


def _floor_warning(kind, params):
    # a case3_sweep evaluated on fewer than 10,000 trials warns that it is
    # below the statistical floor
    if kind == "case3_sweep" and params.get("trials", cli._DEFAULTS[kind]["trials"]) < 10_000:
        return pytest.warns(UserWarning, match="statistical floor")
    return contextlib.nullcontext()


def _runs_or_is_rejected(tmp_path, kind, params, seeds):
    # on each seed, validate rejects the config, or run exits 0 with finite
    # CSVs
    for seed in seeds:
        cfg = write_config(tmp_path / f"{seed}.json",
                           {"experiment": kind, "seed": seed, "params": params})
        if validate_config(cli.load_config(cfg)):
            continue
        out = tmp_path / str(seed)
        with _floor_warning(kind, params):
            assert main(["run", cfg, "--out", str(out)]) == 0, seed
        for path in out.glob("*.csv"):
            _, rows = read_csv(path)
            assert rows and all(np.isfinite(float(cell)) for row in rows
                                for cell in row if not _is_label(cell))


def _is_label(cell):
    # method names such as "tradeoff" or "eta_0.5"; "nan" and "inf" parse
    return re.fullmatch(r"[A-Za-z_][A-Za-z_0-9.]*", cell) is not None \
        and cell.lower() not in ("nan", "inf", "infinity")


@pytest.mark.parametrize("kind, field, value", _CASE2_BOUNDS)
def test_case2_runs_at_every_validate_bound(tmp_path, kind, field, value):
    params = {**_CASE2_SMALL, field: value}
    if kind == "case2_snr":
        params.setdefault("snr_db", [0.0])
    _runs_or_is_rejected(tmp_path, kind, params, range(10))


# Small Case I runs, and each field whose validate check has a finite bound,
# at that bound: one antenna, the frame as short as the array, one and four
# users (four is the cross-field limit), the
# weights at 0 and 1, the SNR limits, the angles at endfire, and the smallest
# grid, speed, channel count and trial count.
_CASE1_SMALL = {
    "case1_rate": {"num_antennas": 4, "frame_length": 6, "num_channels": 3,
                   "snr_db": [0.0]},
    "case1_roc": {"num_antennas": 4, "frame_length": 6, "trials": 50,
                  "weights": [0.5]},
    "case1_beampattern": {"num_antennas": 4, "frame_length": 6,
                          "grid_points": 31},
    "case1_aging": {"num_antennas": 4, "frame_length": 6, "num_channels": 3},
}
_CASE1_BOUNDS = [(kind, field, value)
                 for kind in _CASE1_SMALL
                 for field, value in [("num_antennas", 1), ("frame_length", 4),
                                      ("num_users", 1), ("num_users", 4)]] + [
    (kind, "weight", w) for kind in ("case1_rate", "case1_beampattern", "case1_aging")
    for w in (0.0, 1.0)] + [
    ("case1_roc", "weights", [0.0, 1.0]),
    ("case1_rate", "snr_db", [-60.0, 60.0]),
    ("case1_aging", "snr_db", [-60.0, 60.0]),
    ("case1_roc", "snr_db_point", -60.0),
    ("case1_roc", "snr_db_point", 60.0),
    ("case1_roc", "target_angle_deg", -90.0),
    ("case1_roc", "target_angle_deg", 90.0),
    ("case1_beampattern", "target_angles_deg", [-90.0]),
    ("case1_beampattern", "target_angles_deg", [-90.0, 90.0]),
    ("case1_beampattern", "grid_points", 16),
    ("case1_aging", "user_speed", 0.0),
    ("case1_rate", "num_channels", 1),
    ("case1_aging", "num_channels", 1),
    ("case1_roc", "trials", 1),
]


@pytest.mark.parametrize("kind, field, value", _CASE1_BOUNDS)
def test_case1_runs_at_every_validate_bound(tmp_path, kind, field, value):
    # 36 cases on seeds 0-9: about 1.7 s on a 2-core VM
    _runs_or_is_rejected(tmp_path, kind, {**_CASE1_SMALL[kind], field: value},
                         range(10))


# Small mi_mmse and case3_sweep runs, and each field whose validate check has
# a finite bound, at that bound: the SNR limits, one quadrature node, one
# and eight bits, the weights at 0 and 1, the positive integers at 1, the
# largest lr, and the calibration targets at and around their limits (near
# 0 and 1, SER toward 1 - 2^-num_bits, Pd toward Pfa from either side). At
# num_bits 2 and 2000 trials the SER limit is 0.75, less a Monte-Carlo
# margin of 0.06, and Pd must exceed Pfa by 0.03 at Pfa 0.0085.
_CASE3_SMALL = {"num_bits": 2, "etas": [0.5], "epochs": 1, "batch_size": 50,
                "samples_per_epoch": 100, "trials": 2000}
_MI_CASE3_BOUNDS = [
    ("mi_mmse", {"snr_db": [-60.0, 60.0]}),
    ("mi_mmse", {"quad_order": 1}),
    ("mi_mmse", {"quad_order": 1, "snr_db": [-60.0, 60.0]}),
    ("case3_sweep", {"num_bits": 1}),
    ("case3_sweep", {"num_bits": 8}),
    ("case3_sweep", {"etas": [0.0, 1.0]}),
    ("case3_sweep", {"batch_size": 1}),
    ("case3_sweep", {"samples_per_epoch": 1}),
    ("case3_sweep", {"trials": 1}),
    ("case3_sweep", {"lr": 1e6}),
    ("case3_sweep", {"target_ser": 1e-9}),
    ("case3_sweep", {"target_ser": 0.68}),
    ("case3_sweep", {"target_ser": 0.7}),
    ("case3_sweep", {"target_ser": 0.749}),
    ("case3_sweep", {"num_bits": 1, "target_ser": 0.499}),
    ("case3_sweep", {"num_bits": 8, "target_ser": 0.996}),
    ("case3_sweep", {"target_pd": 0.9999}),
    ("case3_sweep", {"target_pd": 0.0086}),
    ("case3_sweep", {"target_pd": 0.04}),
    ("case3_sweep", {"target_pfa": 1e-9}),
    ("case3_sweep", {"target_pfa": 0.934}),
    ("case3_sweep", {"target_pd": 2e-9, "target_pfa": 1e-9}),
    ("case3_sweep", {"target_pd": 0.999999, "target_pfa": 0.999998}),
]


@pytest.mark.parametrize("kind, params", _MI_CASE3_BOUNDS)
def test_mi_and_case3_run_at_every_validate_bound(tmp_path, kind, params):
    # 23 cases on seeds 0-9: about 3 s on a 2-core VM. Before the Monte-Carlo
    # margin of the case3 cross-checks, the SER and Pd targets near their
    # limits, Pfa just below Pd and one trial each failed in run on some
    # seeds, with validate passing them
    small = _CASE3_SMALL if kind == "case3_sweep" else {}
    _runs_or_is_rejected(tmp_path, kind, {**small, **params}, range(10))


def test_case3_sweep_runs_on_single_message_batches(tmp_path):
    # batch size 1 draws message 0 alone on some step; with 0/1 bit inputs
    # and zero initial biases its encoder output was all zero, and the run
    # failed to normalize it (seed 3 of this config)
    params = {"batch_size": 1, "samples_per_epoch": 200, "etas": [0.5],
              "trials": 2000}
    _runs_or_is_rejected(tmp_path, "case3_sweep", params, range(10))


def test_case3_sweep_bpsk_validates_and_runs(tmp_path):
    # BPSK's calibrated comm noise lies beyond the calibration's starting
    # bracket, which the calibration widens on its own
    cfg = write_config(tmp_path / "c.json",
                       {"experiment": "case3_sweep", "seed": 1,
                        "params": {"num_bits": 1, "epochs": 1,
                                   "samples_per_epoch": 400, "etas": [0.5]}})
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    record = json.loads((tmp_path / "o" / "run_record.json").read_text())
    assert record["summary"]["comm_noise_var"] > 4.0


def test_run_refuses_invalid_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"experiment": "mi_mmse"})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_missing_and_malformed_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "not found" in err and "not valid JSON" in err


def test_version_subcommand(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_package_import_exposes_version_and_loads_no_submodule():
    out = run_python(["-c", "import sys, isackit; print(isackit.__version__); "
                      "print(sorted(m for m in sys.modules if m.startswith('isackit.')))"])
    assert out.split("\n")[:2] == [__version__, "[]"]


_SCIPY_MODULES_AFTER_RUN = """
import sys
def scipy_modules():
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
import isackit.cli
scipy_modules()
isackit.cli.main(["run", sys.argv[1], "--out", sys.argv[2]])
scipy_modules()
"""


def test_module_is_executable(tmp_path):
    assert run_python(["-m", "isackit.cli", "version"]).strip() == __version__
    # neither importing the CLI (which imports every module) nor a run that
    # writes its record loads scipy: only case1_aging needs it, for J0
    cfg = write_config(tmp_path / "c.json",
                       {"experiment": "mi_mmse", "seed": 1,
                        "params": {"snr_db": [0.0]}})
    lines = run_python(["-c", _SCIPY_MODULES_AFTER_RUN, cfg,
                        str(tmp_path / "o")]).splitlines()
    assert lines[0] == "[]" and lines[-1] == "[]"
    assert (tmp_path / "o" / "run_record.json").exists()


# ----------------------------------------------------------------- mi_mmse


def test_mi_mmse_run_and_gaussian_identity(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = write_config(tmp_path / "c.json",
                       {"experiment": "mi_mmse", "seed": 5,
                        "params": {"snr_db": [-5.0, 0.0, 10.0]}})
    out = tmp_path / "artifacts"
    assert main(["run", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "mi_mmse.csv")
    assert header == "snr_db,input,mi_nats,mmse"
    gaussian = [r for r in rows if r[1] == "gaussian"]
    assert len(gaussian) == 3
    for snr_db, _, mi, mmse in gaussian:
        snr = 10.0 ** (float(snr_db) / 10.0)
        assert abs(float(mi) - np.log1p(snr)) < 1e-6
        assert abs(float(mmse) - 1.0 / (1.0 + snr)) < 1e-6
    record = json.loads((out / "run_record.json").read_text())
    assert record["version"] == __version__
    assert record["files"] == ["mi_mmse.csv"]
    assert record["experiment"] == "mi_mmse"
    assert record["wall_time_s"] >= 0.0
    env = record["environment"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "blas_thread_vars"}
    assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
    assert env["blas_thread_vars"]["OMP_NUM_THREADS"] == "3"
    assert env["blas_thread_vars"]["MKL_NUM_THREADS"] is None
    assert set(env["blas_thread_vars"]) == {"OPENBLAS_NUM_THREADS",
                                            "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert capsys.readouterr().out.startswith("wrote 1 artifact")


def test_mi_mmse_finite_at_snr_limits(tmp_path):
    run_experiment({"experiment": "mi_mmse", "seed": 1,
                    "params": {"snr_db": [-60.0, 60.0]}}, tmp_path)
    _, rows = read_csv(tmp_path / "mi_mmse.csv")
    assert len(rows) == 6
    assert all(np.isfinite(float(r[2])) and np.isfinite(float(r[3])) for r in rows)
    mi = {(r[0], r[1]): float(r[2]) for r in rows}
    for name in ("gaussian", "qpsk", "bpsk"):
        assert mi["-60", name] == pytest.approx(1e-6, rel=1e-5)
    assert mi["60", "qpsk"] == pytest.approx(np.log(4.0), abs=1e-8)
    assert mi["60", "bpsk"] == pytest.approx(np.log(2.0), abs=1e-8)


# ----------------------------------------------------------- reproducibility


def test_same_config_and_seed_byte_identical(tmp_path):
    payload = {"experiment": "case1_rate", "seed": 17,
               "params": {"num_channels": 4, "snr_db": [6.0, 10.0]}}
    cfg = write_config(tmp_path / "c.json", payload)
    assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "rate.csv").read_bytes()
    b = (tmp_path / "b" / "rate.csv").read_bytes()
    assert a == b


def test_seed_override_changes_output(tmp_path):
    payload = {"experiment": "case1_rate", "seed": 17,
               "params": {"num_channels": 4, "snr_db": [10.0]}}
    cfg = write_config(tmp_path / "c.json", payload)
    assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "b"),
                 "--seed", "18"]) == 0
    a = (tmp_path / "a" / "rate.csv").read_bytes()
    b = (tmp_path / "b" / "rate.csv").read_bytes()
    assert a != b
    record = json.loads((tmp_path / "b" / "run_record.json").read_text())
    assert record["seed"] == 18


# ------------------------------------------------------- per-experiment runs


def test_case1_rate_orderings(tmp_path):
    record = run_experiment({"experiment": "case1_rate", "seed": 2,
                             "params": {"num_channels": 6,
                                        "snr_db": [10.0]}},
                            tmp_path)
    header, rows = read_csv(tmp_path / "rate.csv")
    assert header == "snr_db,method,sum_rate_bits"
    rates = {r[1]: float(r[2]) for r in rows}
    assert rates["genie"] >= rates["tradeoff"] >= rates["reference"]
    assert record.summary["genie_at_10dB"] == pytest.approx(rates["genie"])


def test_case1_roc_artifact(tmp_path):
    record = run_experiment({"experiment": "case1_roc", "seed": 3,
                             "params": {"trials": 3000,
                                        "weights": [0.2, 0.5]}},
                            tmp_path)
    header, rows = read_csv(tmp_path / "roc.csv")
    assert header == "threshold,pfa,pd,method"
    methods = {r[3] for r in rows}
    assert methods == {"eta_0.2", "eta_0.5"}
    pfa = np.array([float(r[1]) for r in rows])
    pd = np.array([float(r[2]) for r in rows])
    assert np.all((pfa >= 0) & (pfa <= 1)) and np.all((pd >= 0) & (pd <= 1))
    assert 0.0 <= record.summary["pd_at_pfa_0.2_eta_0.2"] <= 1.0


def test_case1_beampattern_artifact(tmp_path):
    run_experiment({"experiment": "case1_beampattern", "seed": 4,
                    "params": {"grid_points": 61}}, tmp_path)
    header, rows = read_csv(tmp_path / "beampattern.csv")
    assert header == "angle_rad,method,gain"
    methods = {r[1] for r in rows}
    assert methods == {"template", "reference", "tradeoff"}
    assert all(float(r[2]) >= 0.0 for r in rows)


def test_case1_aging_artifact(tmp_path):
    record = run_experiment({"experiment": "case1_aging", "seed": 5,
                             "params": {"num_channels": 5}}, tmp_path)
    header, rows = read_csv(tmp_path / "rate.csv")
    assert header == "snr_db,method,sum_rate_bits"
    assert {r[1] for r in rows} == {"matched", "aged", "topology"}
    assert record.summary["topology_loss_pct_at_6dB"] > \
        record.summary["aged_loss_pct_at_6dB"]


def test_case2_convergence_artifact(tmp_path):
    record = run_experiment({"experiment": "case2_convergence", "seed": 6,
                             "params": {"num_train": 20, "num_test": 8,
                                        "num_layers": 4, "epochs": 2}},
                            tmp_path)
    header, rows = read_csv(tmp_path / "convergence.csv")
    assert header == "layer,method,rate_nats"
    assert len(rows) == 4 * 2
    layers = sorted({int(r[0]) for r in rows})
    assert layers == [1, 2, 3, 4]
    assert 0.0 <= record.summary["learned_wins_fraction"] <= 1.0


def test_case2_snr_artifact(tmp_path):
    run_experiment({"experiment": "case2_snr", "seed": 7,
                    "params": {"num_train": 12, "num_test": 5,
                               "num_layers": 3, "epochs": 2,
                               "snr_db": [0.0, 10.0]}}, tmp_path)
    header, rows = read_csv(tmp_path / "rate.csv")
    assert header == "snr_db,method,sum_rate_bits"
    assert {r[1] for r in rows} == {"pga", "unrolled_pga"}
    by_method = {m: [float(r[2]) for r in rows if r[1] == m]
                 for m in ("pga", "unrolled_pga")}
    # rates improve with SNR for both schedules
    assert by_method["pga"][1] > by_method["pga"][0]
    assert by_method["unrolled_pga"][1] > by_method["unrolled_pga"][0]


def test_case3_sweep_artifacts(tmp_path):
    record = run_experiment({"experiment": "case3_sweep", "seed": 8,
                             "params": {"num_bits": 2, "etas": [0.5],
                                        "epochs": 2, "batch_size": 100,
                                        "samples_per_epoch": 1000,
                                        "trials": 12000}}, tmp_path)
    assert set(record.files) == {"constellation_psk.csv",
                                 "constellation_qam.csv",
                                 "constellation_eta_0.5.csv"}
    # one 'label,re,im' row per point, in message order, at 9 significant digits
    psk = cli.baseline_constellation("PSK", 4).points
    assert (tmp_path / "constellation_psk.csv").read_text().splitlines() == \
        ["label,re,im"] + [f"{m},{z.real:.9g},{z.imag:.9g}" for m, z in enumerate(psk)]
    header, rows = read_csv(tmp_path / "constellation_eta_0.5.csv")
    assert header == "label,re,im"
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
    pts = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
    assert abs(np.mean(np.abs(pts) ** 2) - 1.0) < 1e-6
    for key in ("comm_noise_var", "radar_noise_var", "threshold",
                "psk_ser", "psk_pd", "psk_pfa", "eta_0.5_spread"):
        assert key in record.summary


def test_failed_manifest_write_leaves_no_manifest(tmp_path, monkeypatch):
    cfg = {"experiment": "mi_mmse", "seed": 1, "params": {"snr_db": [0.0]}}
    run_experiment(cfg, tmp_path)
    assert (tmp_path / "run_record.json").exists()

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"experiment": "mi_mmse", ')
        raise OSError("disk full")

    monkeypatch.setattr(cli.json, "dump", broken_dump)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg, tmp_path)
    # neither a partial manifest nor the earlier run's one is left behind
    assert {p.name for p in tmp_path.iterdir()} == {"mi_mmse.csv"}


def test_record_lists_every_emitted_file(tmp_path):
    record = run_experiment({"experiment": "case1_beampattern", "seed": 9,
                             "params": {"grid_points": 31}}, tmp_path)
    emitted = {p.name for p in tmp_path.iterdir()}
    assert emitted == set(record.files) | {"run_record.json"}


# ---------------------------------------------------------- artifact contract

_SMALL = {
    "mi_mmse": {"snr_db": [0.0]},
    "case1_rate": {"num_channels": 2, "snr_db": [2.0, 6.0]},
    "case1_roc": {"trials": 500, "weights": [0.2]},
    "case1_beampattern": {"grid_points": 31},
    "case1_aging": {"num_channels": 2, "snr_db": [2.0, 6.0]},
    "case2_convergence": {"num_train": 12, "num_test": 5, "num_layers": 3,
                          "epochs": 1},
    "case2_snr": {"num_train": 12, "num_test": 5, "num_layers": 3,
                  "epochs": 1, "snr_db": [0.0]},
    "case3_sweep": {"num_bits": 2, "etas": [0.5], "epochs": 1,
                    "batch_size": 100, "samples_per_epoch": 200,
                    "trials": 10000},
}


@pytest.mark.parametrize("kind", list(_SMALL))
def test_runner_returns_tables_and_writes_nothing(tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    params = {**cli._DEFAULTS[kind], **_SMALL[kind]}
    tables, summary = cli._RUNNERS[kind](params, np.random.default_rng(1))
    assert list(tmp_path.iterdir()) == []
    assert tables and summary
    for name, (header, rows) in tables.items():
        assert name.endswith(".csv") and rows
        width = len(header.split(","))
        assert all(len(row) == width and all(isinstance(c, str) for c in row)
                   for row in rows), name


def _disk_full(*args, **kwargs):
    raise OSError("disk full")


@pytest.mark.parametrize("kind, module, name", [
    ("case3_sweep", cli, "train_isac_ae"),  # the runner raises
    ("mi_mmse", cli.os, "replace"),         # renaming the CSV into place fails
])
def test_failed_run_leaves_empty_output_dir_empty(tmp_path, monkeypatch, kind,
                                                  module, name):
    monkeypatch.setattr(module, name, _disk_full)
    with pytest.raises(OSError, match="disk full"):
        run_experiment({"experiment": kind, "seed": 1, "params": _SMALL[kind]},
                       tmp_path)
    # no CSV, whole or partial, no temporary file and no manifest
    assert list(tmp_path.iterdir()) == []
