"""CLI: config validation diagnostics, artifact schemas, reproducibility."""

import json
import subprocess
import sys

import numpy as np
import pytest

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
    assert "seed: must be an integer" in text
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
])
def test_validate_matches_run_on_cross_field_limits(tmp_path, capsys, kind,
                                                    params, field):
    # configs that the case1 runners cannot execute fail validation too
    cfg = write_config(tmp_path / "c.json",
                       {"experiment": kind, "seed": 1, "params": params})
    assert main(["validate", cfg]) == 2
    assert f"params.{field}:" in capsys.readouterr().out
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"params.{field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_module_is_executable():
    proc = subprocess.run([sys.executable, "-m", "isackit.cli", "version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


# ----------------------------------------------------------------- mi_mmse


def test_mi_mmse_run_and_gaussian_identity(tmp_path, capsys):
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
    assert capsys.readouterr().out.startswith("wrote 1 artifact")


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
