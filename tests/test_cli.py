"""CLI: config validation diagnostics, artifact schemas, reproducibility."""

import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert list(tables) == list(cli._EXPERIMENTS)
    for kind, table in tables.items():
        defaults = cli._EXPERIMENTS[kind].defaults
        assert list(table) == list(defaults), kind
        for name, (default, constraint) in table.items():
            assert _doc_value(default) == defaults[name], f"{kind}.{name}"
            assert cli._RULES[name].accepts(defaults[name]), f"{kind}.{name}"
            # the constraint restates the validate message, optionally
            # followed by ", <cross-field limit or unit>"
            message = re.sub(r"^must (be an? |lie )", "", cli._RULES[name].message)
            assert constraint == message or constraint.startswith(message + ", "), \
                f"{kind}.{name}: {constraint!r} does not start with {message!r}"


def test_shipped_configs_validate():
    configs = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
    assert len(configs) == 8
    loaded = {path.name: cli.load_config(path) for path in configs}
    assert sorted(cfg["experiment"] for cfg in loaded.values()) == sorted(cli._EXPERIMENTS)
    for name, cfg in loaded.items():
        assert validate_config(cfg) == [], name


def test_stress_configs_validate(capsys):
    # configs/stress holds configs at literature-scale sizes, each named for
    # its experiment; `isackit validate` accepts each, silently
    configs = sorted((Path(__file__).parents[1] / "configs" / "stress").glob("*.json"))
    assert configs
    for path in configs:
        assert main(["validate", str(path)]) == 0, path.name
        assert cli.load_config(path)["experiment"] == path.stem
    assert capsys.readouterr().out == ""


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
    # params of an unknown experiment cannot be checked further
    assert validate_config({"experiment": "warp", "seed": 1.5, "bogus": 1,
                            "params": {"nope": 2}}) == [
        "bogus: unknown top-level field",
        "experiment: unknown kind 'warp' (expected one of: {})".format(
            ", ".join(cli._EXPERIMENTS)),
        "seed: must be a non-negative integer"]
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
    ("case3_sweep", {"trials": 2000, "target_ser": 0.92}, "target_ser"),
    ("case3_sweep", {"trials": 1, "target_ser": 1e-9}, "target_ser"),
    ("case3_sweep", {"trials": 2000, "target_pd": 0.03}, "target_pd"),
])
def test_validate_matches_run_on_cross_field_limits(tmp_path, capsys, kind,
                                                    params, field):
    # configs that the runners cannot execute fail validation too
    assert f"params.{field}:" in _refused(tmp_path, capsys, kind, params)


def _refused(tmp_path, capsys, kind, params, seed=1):
    # validate's output on a config that run refuses with the same lines
    cfg = write_config(tmp_path / "c.json",
                       {"experiment": kind, "seed": seed, "params": params})
    assert main(["validate", cfg]) == 2
    out = capsys.readouterr().out
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "".join(f"error: {line}\n" for line in out.splitlines())
    assert not (tmp_path / "o").exists()
    return out


def _fields(*prefixes):
    # (kind, field, rule) for each experiment whose name has one of prefixes
    return [(kind, field, cli._RULES[field]) for kind, spec in cli._EXPERIMENTS.items()
            if kind.startswith(prefixes) for field in spec.defaults]


def _past_bounds():
    """(kind, field, value) one step past each bound of a field's rule: ±1
    for an integer, the next float otherwise, in a one-item list if many."""
    out = []
    for kind, field, rule in _fields(""):
        steps = ((rule.lo - 1, int(rule.hi) + 1) if rule.integer else
                 (math.nextafter(rule.lo, -math.inf), math.nextafter(rule.hi, math.inf)))
        out += [pytest.param(kind, field, [v] if rule.many else v, id=f"{kind}-{field}-past_{end}")
                for end, v in zip(("lo", "hi"), steps)]
    return out


@pytest.mark.parametrize("kind, field, value", _past_bounds() + [
    # JSON integers beyond float range: validate once raised a TypeError on
    # one in a float field, and passed one in an integer field, which run
    # then failed to allocate
    pytest.param("case1_aging", "user_speed", 10 ** 400, id="case1_aging-user_speed-1e400"),
    pytest.param("case1_roc", "trials", 10 ** 400, id="case1_roc-trials-1e400")])
def test_validate_matches_run_one_step_past_each_bound(tmp_path, capsys, kind, field, value):
    assert _refused(tmp_path, capsys, kind, {field: value}) \
        == f"params.{field}: {cli._RULES[field].message}\n"


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2)
                     | st.sampled_from([2 ** 64, 10 ** 400]),
                     lambda inner: st.lists(inner, max_size=2)
                     | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=4)


@settings(max_examples=200)
@given(st.sampled_from(list(cli._EXPERIMENTS)) | _JSON, _JSON,
       st.dictionaries(st.sampled_from(sorted(cli._RULES)), _JSON, max_size=3) | _JSON, _JSON)
def test_validate_config_never_raises(kind, seed, params, root):
    for cfg in ({"experiment": kind, "seed": seed, "params": params}, root):
        assert all(isinstance(line, str) for line in validate_config(cfg))


_SEED_DIAGNOSTIC = "seed: must be a non-negative integer"


@pytest.mark.parametrize("seed", [-1, True])
def test_validate_matches_run_on_seed(tmp_path, capsys, seed):
    assert _refused(tmp_path, capsys, "mi_mmse", {}, seed) == _SEED_DIAGNOSTIC + "\n"


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


# One small parameter set per experiment, the base of every corner below. At
# case3's 2 bits and 2,000 trials the SER limit is 0.75, less a Monte-Carlo
# margin of 0.06, and Pd must exceed Pfa by 0.03 at Pfa 0.0085.
_SMALL = {
    "mi_mmse": {"snr_db": [0.0]},
    "case1_rate": {"num_antennas": 4, "frame_length": 6, "num_channels": 3,
                   "snr_db": [0.0]},
    "case1_roc": {"num_antennas": 4, "frame_length": 6, "trials": 50,
                  "weights": [0.5]},
    "case1_beampattern": {"num_antennas": 4, "frame_length": 6, "grid_points": 31},
    "case1_aging": {"num_antennas": 4, "frame_length": 6, "num_channels": 3},
    "case2_convergence": {"num_antennas": 4, "num_chains": 2, "num_users": 2,
                          "num_layers": 3, "num_train": 10, "num_test": 5,
                          "epochs": 2, "batch_size": 5},
    "case3_sweep": {"num_bits": 2, "etas": [0.5], "epochs": 1, "batch_size": 50,
                    "samples_per_epoch": 100, "trials": 2000},
}
_SMALL["case2_snr"] = {**_SMALL["case2_convergence"], "snr_db": [0.0]}

# bounds that stand for an open end ("positive", "below 1", no upper limit):
# no run corner sits there
_OPEN_ENDS = (cli._ABOVE_0, cli._BELOW_1, cli._HUGE)


def _corners(*prefixes):
    """(kind, field, value): each field at each finite bound of its rule, a
    list field at [lo], [hi] and [lo, hi]."""
    out = []
    for kind, field, rule in _fields(*prefixes):
        ends = [b for b in (rule.lo, rule.hi) if b not in _OPEN_ENDS]
        values = [[b] for b in ends] + [ends] * (len(ends) == 2) if rule.many else ends
        out += [(kind, field, v) for v in values]
    return out


def _corner_id(value):
    """A corner's id from its value, not from its index in the whole list of
    corners, so that ids stay put when rules come or go: a list as its
    items (snr_db-[-60.0, 60.0]), params as their field-value pairs."""
    if isinstance(value, list):
        return str(value)
    if isinstance(value, dict):
        return "-".join(f"{field}-{v}" for field, v in value.items())
    return None


def test_generated_corners_pass_the_field_rules():
    # every corner passes its field's rule, and every experiment has corners
    # that validate accepts in full, so that the tests below run each kind
    corners = _corners("")
    assert all(cli._RULES[field].accepts(value) for _, field, value in corners)
    assert {kind for kind, field, value in corners
            if not validate_config({"experiment": kind, "seed": 0,
                                    "params": {**_SMALL[kind], field: value}})} \
        == set(cli._EXPERIMENTS)


def _runs_or_is_rejected(tmp_path, kind, params, seeds):
    # on each seed, validate rejects the config, or run exits 0 with finite
    # CSVs
    for seed in seeds:
        cfg = write_config(tmp_path / f"{seed}.json",
                           {"experiment": kind, "seed": seed, "params": params})
        if validate_config(cli.load_config(cfg)):
            continue
        out = tmp_path / str(seed)
        assert main(["run", cfg, "--out", str(out)]) == 0, seed
        _assert_finite_csvs(out)


def _assert_finite_csvs(out):
    for path in out.glob("*.csv"):
        _, rows = read_csv(path)
        assert rows and all(np.isfinite(float(cell)) for row in rows
                            for cell in row if not _is_label(cell))


def _is_label(cell):
    # method names such as "tradeoff", "eta_0.5" or "eta_1e-05"; "nan" and
    # "inf" parse
    return re.fullmatch(r"[A-Za-z_][A-Za-z_0-9.+-]*", cell) is not None \
        and cell.lower() not in ("nan", "inf", "infinity")


# The generated corners on seeds 0-9, then the hand-listed ones that pair
# fields: the case1 frame as short as the array and four users (one per
# default Rician factor), and the case3 targets at and around their limits
# (near 0 and 1, SER toward 1 - 2^-num_bits, Pd toward Pfa from either side),
# which run failed on some seeds before the Monte-Carlo margin.
_CASE1_PAIRED = [(kind, field, value) for kind in _SMALL if kind.startswith("case1_")
                 for field, value in (("frame_length", _SMALL[kind]["num_antennas"]),
                                      ("num_users", len(cli.DEFAULT_RICIAN_FACTORS)))]
_CASE3_PAIRED = [("case3_sweep", params) for params in (
    {"target_ser": 1e-9}, {"target_ser": 0.68}, {"target_ser": 0.7},
    {"target_ser": 0.749}, {"num_bits": 1, "target_ser": 0.499},
    {"num_bits": 8, "target_ser": 0.996}, {"target_pd": 0.9999},
    {"target_pd": 0.0086}, {"target_pd": 0.04}, {"target_pfa": 1e-9},
    {"target_pfa": 0.934}, {"target_pd": 2e-9, "target_pfa": 1e-9},
    {"target_pd": 0.999999, "target_pfa": 0.999998})]


@pytest.mark.parametrize("kind, field, value", _corners("case1_") + _CASE1_PAIRED,
                         ids=_corner_id)
def test_case1_runs_at_every_validate_bound(tmp_path, kind, field, value):
    _runs_or_is_rejected(tmp_path, kind, {**_SMALL[kind], field: value}, range(10))


@pytest.mark.parametrize("kind, field, value", _corners("case2_"), ids=_corner_id)
def test_case2_runs_at_every_validate_bound(tmp_path, kind, field, value):
    _runs_or_is_rejected(tmp_path, kind, {**_SMALL[kind], field: value}, range(10))


# case3's paired corners override two fields, so these corners are params
@pytest.mark.parametrize("kind, params", [(kind, {field: value}) for kind, field, value
                                          in _corners("mi_", "case3_")] + _CASE3_PAIRED,
                         ids=_corner_id)
def test_mi_and_case3_run_at_every_validate_bound(tmp_path, kind, params):
    _runs_or_is_rejected(tmp_path, kind, {**_SMALL[kind], **params}, range(10))


def test_case1_aging_runs_at_a_float_max_user_speed(tmp_path):
    # a Doppler argument that overflowed to inf would have a J0 of nan, and
    # the run would end with "SVD did not converge"
    params = {**_SMALL["case1_aging"], "user_speed": sys.float_info.max}
    assert not validate_config({"experiment": "case1_aging", "seed": 0, "params": params})
    _runs_or_is_rejected(tmp_path, "case1_aging", params, range(10))


@pytest.mark.parametrize("noise_var", [7e-243, 1e-300])
def test_case2_convergence_runs_one_user_at_a_tiny_noise(tmp_path, noise_var):
    # one user's interference (gain + noise) - gain rounded to 0 once
    # gain / noise passed 1/eps, and the run failed with "divide by zero"
    params = {**_SMALL["case2_convergence"], "num_users": 1, "noise_var": noise_var}
    assert not validate_config({"experiment": "case2_convergence", "seed": 0,
                                "params": params})
    _runs_or_is_rejected(tmp_path, "case2_convergence", params, range(10))


def _field_draws(kind, field):
    """Values that pass a field's rule: integers up to twice the field's
    value in _SMALL (or its default), numbers uniform over the range and,
    where it has no negative end, log-uniform over it too, and lists of one
    to three of them."""
    rule = cli._RULES[field]
    if rule.integer:
        size = {**cli._EXPERIMENTS[kind].defaults, **_SMALL[kind]}[field]
        one = st.integers(rule.lo, int(min(rule.hi, max(rule.lo, 2 * size))))
    else:
        one = st.floats(rule.lo, rule.hi)
        if rule.lo >= 0:
            low, high = math.frexp(max(rule.lo, cli._ABOVE_0))[1], math.frexp(rule.hi)[1]
            one |= st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                             st.integers(low, high)).map(lambda v: min(max(v, rule.lo), rule.hi))
    return st.lists(one, min_size=1, max_size=3) if rule.many else one


@st.composite
def _small_configs(draw, kind):
    # _SMALL with one to three of the kind's fields redrawn inside their rules
    fields = draw(st.lists(st.sampled_from(list(cli._EXPERIMENTS[kind].defaults)),
                           min_size=1, max_size=3, unique=True))
    return {"experiment": kind, "seed": draw(st.integers(0, 2 ** 32)),
            "params": {**_SMALL[kind], **{f: draw(_field_draws(kind, f)) for f in fields}}}


@pytest.mark.parametrize("kind", list(cli._EXPERIMENTS))
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_config_that_validates_runs(kind, data):
    # validate accepts exactly what run executes: a drawn config that
    # validate passes runs to finite CSVs, and warnings are errors
    cfg = data.draw(_small_configs(kind))
    if validate_config(cfg):
        return
    with tempfile.TemporaryDirectory() as out:
        run_experiment(cfg, out)
        _assert_finite_csvs(Path(out))


# Retired parameters by kind, each at the value every run used, because
# another knob carries its degree of freedom: snr_db, snr_db_point or
# noise_var sets the SNR (total_power, echo_gain), and user_speed the Jakes
# argument (carrier_freq, sample_period).
_RETIRED = {
    **{kind: ("total_power",) for kind in cli._EXPERIMENTS
       if kind.startswith(("case1_", "case2_"))},
    "case1_roc": ("total_power", "echo_gain"),
    "case1_aging": ("total_power", "carrier_freq", "sample_period"),
}


@pytest.mark.parametrize("kind, name", [(kind, name) for kind, names in _RETIRED.items()
                                        for name in names])
def test_retired_parameters_are_refused(tmp_path, capsys, kind, name):
    assert _refused(tmp_path, capsys, kind, {name: 1.0}) \
        == f"params.{name}: unknown parameter for {kind}\n"


def test_every_rule_belongs_to_an_experiment():
    # a retired parameter takes its rule with it
    used = {name for spec in cli._EXPERIMENTS.values() for name in spec.defaults}
    assert set(cli._RULES) <= used


def _integral_ends():
    """(kind, field, ends): the integers at the ends of each float field's
    rule, the ceiling of lo and the floor of hi (at most 10^300), where the
    rule holds one."""
    out = []
    for kind, field, rule in _fields(""):
        ends = sorted({math.ceil(rule.lo), min(math.floor(rule.hi), 10 ** 300)})
        if not rule.integer and rule.accepts([ends[0]] if rule.many else ends[0]):
            out.append(pytest.param(kind, field, ends, id=f"{kind}-{field}"))
    return out


@pytest.mark.parametrize("kind, field, ends", _integral_ends())
def test_an_integer_writes_the_csvs_of_the_equal_float(tmp_path, kind, field, ends):
    # run takes JSON numbers as they come, so an integer in a float field
    # must reach the CSVs as the float of the same value
    many = cli._RULES[field].many
    for i, end in enumerate(ends):
        written = []
        for value in (end, float(end)):
            cfg = {"experiment": kind, "seed": 0,
                   "params": {**_SMALL[kind], field: [value] if many else value}}
            assert not validate_config(cfg)
            out = tmp_path / f"{i}-{type(value).__name__}"
            run_experiment(cfg, out)
            written.append({path.name: path.read_bytes() for path in out.glob("*.csv")})
        assert written[0] and written[0] == written[1], end


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

@pytest.mark.parametrize("kind", list(_SMALL))
def test_runner_returns_tables_and_writes_nothing(tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    spec = cli._EXPERIMENTS[kind]
    params = {**spec.defaults, **_SMALL[kind]}
    tables, summary = spec.run(params, np.random.default_rng(1))
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
