"""Configuration parsing, pipeline manifests, determinism, CLI exit codes."""

import contextlib
import csv
import importlib
import io
import json
import math
import pathlib
import runpy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from memwave import biorthogonal as bio
from memwave import cli, dd, hp
from memwave.runner import (PIPELINES, SWEEPABLE, ConfigError, RunConfig, load_config, parse_value,
                            run_pipeline, sweep)

FLOAT_KEYS = ("s", "M", "c", "T_factor", "T", "omega0_lo", "omega0_hi", "sigma_xi",
              "sigma_xi_dot", "sigma_zeta", "terminal_tol", "gap_epsilon")
INT_KEYS = ("N", "family_N", "n_table", "trials", "seed")


def small_config(tmp_path, **extra):
    lines = {"N": 6, "family_N": 4, "n_table": 32, "trials": 60}
    lines.update(extra)
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n")
    return path


def test_defaults_and_file_parse(tmp_path):
    cfg = load_config(None)
    assert cfg.s == 0.75 and cfg.N == 16
    path = small_config(tmp_path, s=0.6, c=1.2)
    cfg = load_config(path)
    assert cfg.s == 0.6 and cfg.c == 1.2 and cfg.N == 6


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus_key = 3\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_invalid_values_rejected(tmp_path):
    for text in ("c = 0.0", "M = 0.0", "s = 1.5", "backend = magic"):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError):
            load_config(path)


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nN = 4  # trailing\n")
    assert load_config(path).N == 4


def test_short_horizon_needs_flag(tmp_path):
    cfg = load_config(small_config(tmp_path, T=3.0))
    with pytest.raises(ConfigError):
        run_pipeline(cfg, "control", outdir=tmp_path / "o")
    cfg2 = load_config(small_config(tmp_path, T=3.0, allow_short_horizon="true"))
    manifest, _ = run_pipeline(cfg2, "control", outdir=tmp_path / "o2")
    assert manifest["stages"]["control"]["verdicts"]["below_threshold_watermark"] is True
    assert "control.below_threshold_watermark" not in manifest["failures"]
    assert (tmp_path / "o2" / "control_belowT.json").exists()


def test_spectrum_pipeline_and_artifacts(tmp_path):
    cfg = load_config(small_config(tmp_path))
    manifest, passed = run_pipeline(cfg, "spectrum", outdir=tmp_path / "out")
    assert passed
    assert (tmp_path / "out" / "eigenvalues.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_manifest_determinism(tmp_path):
    cfg = load_config(small_config(tmp_path))
    run_pipeline(cfg, "gaps", outdir=tmp_path / "a")
    run_pipeline(cfg, "gaps", outdir=tmp_path / "b")
    a = (tmp_path / "a" / "manifest.json").read_bytes()
    b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert a == b


_CONFIG_KEYS = sorted(k for k in load_config(None).values if k != "outdir")
_config_values = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(allow_nan=False),
                           st.text(max_size=12))


@settings(max_examples=80)
@given(key=st.sampled_from(_CONFIG_KEYS), value=_config_values, outdir=st.text(min_size=1, max_size=24))
def test_config_hash_leaves_out_only_the_output_directory(key, value, outdir):
    # one configuration written to two directories has one hash; any other key moves it
    base = load_config(None)
    assert RunConfig(dict(base.values, outdir=outdir)).hash() == base.hash()
    assume(str(value) != str(base.values[key]))
    assert RunConfig(dict(base.values, **{key: value})).hash() != base.hash()


def test_full_pipeline_manifest_completeness(tmp_path):
    cfg = load_config(small_config(tmp_path))
    manifest, passed = run_pipeline(cfg, "full", outdir=tmp_path / "full")
    assert passed, manifest["failures"]
    stages = manifest["stages"]
    assert set(stages) == {"spectrum", "gaps", "biorthogonal", "control", "simulate"}
    # every numeric verdict appears in the manifest file verbatim
    on_disk = json.loads((tmp_path / "full" / "manifest.json").read_text())
    assert on_disk["stages"].keys() == stages.keys()
    assert on_disk["passed"] is True
    assert "terminal_ratios" in on_disk["stages"]["simulate"]["verdicts"]
    # everything the benchmark worker reads from a run's outputs
    assert "duality_max_residual" in on_disk["stages"]["simulate"]["verdicts"]
    assert "gram_deviation" in on_disk["stages"]["biorthogonal"]["verdicts"]
    assert "control.json" in on_disk["stages"]["control"]["artifacts"]
    payload = json.loads((tmp_path / "full" / "control.json").read_text())
    read = {"method", "residual", "rhs_norm", "control_norm", "gram_condition", "coefficients", "omega0", "T"}
    assert read <= set(payload)
    assert {"dps", "scaled"} <= set(payload["gram_condition"])
    assert all({"n", "j", "re", "im"} <= set(c) for c in payload["coefficients"])


@pytest.fixture(scope="module")
def small_full_run(tmp_path_factory):
    # one small passing full run, shared by the tests that read its outputs
    tmp = tmp_path_factory.mktemp("small")
    cfg = load_config(small_config(tmp, N=4, family_N=2, trials=20))
    manifest, passed = run_pipeline(cfg, "full", outdir=tmp / "full")
    assert passed
    return manifest, tmp / "full"


def test_every_csv_artifact_holds_plain_numbers(small_full_run):
    # every cell but the headers and the eigenvalue table's backend label
    # parses as a float: no numpy reprs such as np.float64(...)
    paths = sorted(small_full_run[1].rglob("*.csv"))
    names = {p.name for p in paths}
    assert {"eigenvalues.csv", "lambda_table.csv", "control_samples.csv", "trajectory.csv"} <= names
    for path in paths:
        header, *rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
        assert rows, path.name
        for row in rows:
            assert len(row) == len(header), path.name
            for key, cell in zip(header, row):
                if key == "backend":
                    assert cell in ("asymptotic", "discretized")
                else:
                    float(cell)


def test_full_run_writes_exactly_its_artifacts(small_full_run):
    # the manifest's artifact lists name every file the run leaves, and nothing else
    manifest, outdir = small_full_run
    listed = {"manifest.json"}.union(*(stage["artifacts"] for stage in manifest["stages"].values()))
    written = {p.name for p in outdir.iterdir()}
    assert written == listed
    assert all((outdir / name).is_file() for name in written)
    assert not any(name.startswith("theta_") for name in written)


def test_benchmark_workloads_are_valid_configurations():
    # the benchmark drives the package through load_config; a removed key would break it from outside
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    workloads = runpy.run_path(str(path))["WORKLOADS"]
    assert workloads
    for name, workload in workloads.items():
        assert workload["pipeline"] in PIPELINES, name
        cfg = load_config(overrides={**workload["config"], "seed": 1})
        assert all(getattr(cfg, key) == value for key, value in workload["config"].items()), name


def test_benchmark_workloads_print_nothing_and_give_finite_figures(tmp_path, capfd, monkeypatch):
    # the benchmark's last line of standard output must be its JSON result: a
    # pipeline that prints, or a figure the worker reads that is NaN or inf
    # (written as NaN or Infinity), would leave a line that is not one
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    worker = runpy.run_path(str(bench / "worker.py"))
    for name, workload in worker["WORKLOADS"].items():
        cfg = load_config(overrides={**workload["config"], "seed": 1})
        _, passed = run_pipeline(cfg, workload["pipeline"], outdir=tmp_path / name)
        checked = worker["check_outputs"](cfg, tmp_path / name, passed)
        assert checked["gate_failures"] == [], name
        assert checked["figures"], name
        assert all(math.isfinite(value) for value in checked["figures"].values()), (name, checked["figures"])
    assert capfd.readouterr().out == ""


def test_benchmark_layer_bindings_resolve():
    # the benchmark traces each layer by patching these bindings from outside;
    # a layer none of whose bindings resolves would be reported as missing
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    layers = runpy.run_path(str(path))["LAYERS"]
    assert layers

    def resolves(module_name, attribute_path):
        owner = importlib.import_module(module_name)
        for part in attribute_path.split("."):
            if not hasattr(owner, part):
                return False
            owner = getattr(owner, part)
        return True

    missing = [name for name, (bindings, _) in layers.items() if not any(resolves(*b) for b in bindings)]
    assert not missing


def test_sweep_aggregation(tmp_path):
    cfg = load_config(small_config(tmp_path, precision="float64"))
    rows, path = sweep(cfg, "c", [0.9, 1.1], pipeline="control", outdir=tmp_path / "sw")
    assert len(rows) == 2 and path.exists()
    header = path.read_text().splitlines()[0]
    assert header.startswith("parameter,value,passed")
    # a failing value is recorded without stopping the sweep
    rows2, _ = sweep(cfg, "c", [0.0, 1.1], pipeline="spectrum", outdir=tmp_path / "sw2")
    assert rows2[0]["passed"] is False and rows2[0]["error"]
    assert rows2[1]["passed"] is True


def test_cli_exit_codes(tmp_path):
    cfg_path = small_config(tmp_path)
    rc = cli.main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path / "cli_out")])
    assert rc == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("c = 0.0\n")
    rc = cli.main(["spectrum", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2


def test_cli_sweep(tmp_path):
    cfg_path = small_config(tmp_path, precision="float64")
    rc = cli.main([
        "sweep", "--config", str(cfg_path), "--out", str(tmp_path / "cs"),
        "--param", "N", "--values", "4,6", "--pipeline", "gaps",
    ])
    assert rc == 0
    assert (tmp_path / "cs" / "sweep_N.csv").exists()
    # one failing value makes the whole sweep fail
    rc = cli.main([
        "sweep", "--config", str(cfg_path), "--out", str(tmp_path / "cs2"),
        "--param", "c", "--values", "0.0,1.1", "--pipeline", "spectrum",
    ])
    assert rc == 1


def test_cli_watermark_is_not_a_verdict(tmp_path, capsys):
    cfg_path = small_config(tmp_path)
    rc = cli.main(["control", "--config", str(cfg_path), "--out", str(tmp_path / "ctl")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "below_threshold_watermark=no" in out
    assert "FAIL" not in out


def _cli_exit(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


_non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_bad_values = st.one_of(
    st.tuples(st.sampled_from(FLOAT_KEYS), _non_finite),
    st.tuples(st.sampled_from(FLOAT_KEYS), st.sampled_from(["abc", "", "1e999", "0x"])),
    st.tuples(st.sampled_from(INT_KEYS), st.floats(allow_nan=False, allow_infinity=False)),
    st.tuples(st.sampled_from(INT_KEYS), st.sampled_from(["abc", "", "2.5", "1e3", "nan"])),
)


_nonpositive = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
_negative = st.floats(max_value=0.0, exclude_max=True, allow_nan=False, allow_infinity=False)
_out_of_range = st.one_of(
    st.tuples(st.sampled_from(["T", "T_factor", "terminal_tol", "gap_epsilon"]), _nonpositive),
    st.tuples(st.sampled_from(["sigma_xi", "sigma_xi_dot", "sigma_zeta"]), _negative),
)
# a table smaller than the default N = 16 is rejected, not silently enlarged
_short_table = st.tuples(st.just("n_table"), st.integers(1, 15))
# so is one smaller than 4 family_N, which the biorthogonal stage's spectrum needs
# (48 levels at the default family_N = 12; the default n_table = 200 covers family_N <= 50)
_short_for_family = st.one_of(st.tuples(st.just("n_table"), st.integers(16, 47)),
                              st.tuples(st.just("family_N"), st.integers(51, 5000)))


# a quarter of the examples go to each case, so every case keeps its 30
@settings(max_examples=120)
@given(case=st.one_of(_bad_values, _out_of_range, _short_table, _short_for_family))
def test_bad_value_is_a_configuration_error(tmp_path_factory, case):
    key, value = case
    text = value if isinstance(value, str) else repr(value)
    with pytest.raises(ConfigError):
        load_config(overrides={key: value})
    if key == "T":  # a short horizon is allowed; a non-positive one is not
        with pytest.raises(ConfigError):
            load_config(overrides={key: value, "allow_short_horizon": True})
    d = tmp_path_factory.mktemp("bad")
    path = d / "run.cfg"
    path.write_text(f"{key} = {text}\n")
    rc, err = _cli_exit(["spectrum", "--config", str(path), "--out", str(d / "out")])
    assert rc == 2 and len(err.splitlines()) == 1
    assert not (d / "out").exists()
    if key in SWEEPABLE:
        rc, err = _cli_exit(["sweep", "--param", key, f"--values={text}", "--out", str(d / "sw")])
        try:
            parse_value(key, value)
        except ConfigError:
            assert rc == 2 and len(err.splitlines()) == 1
        else:  # parses but out of range: a failed sweep value, like c = 0
            assert rc == 1


@pytest.mark.parametrize("verb", ["biorthogonal", "verify-all"])
def test_cli_short_horizon_cannot_serve_the_family(tmp_path, verb):
    # below the threshold the Gram control may run on request, the biorthogonal family never:
    # the horizon is bad input for it (exit 2, one line), not a traceback
    cfg_path = small_config(tmp_path, T_factor=0.9)
    rc, err = _cli_exit([verb, "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--allow-short-horizon"])
    assert rc == 2 and len(err.splitlines()) == 1 and "biorthogonal" in err, err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_cli_boolean_override_still_parses():
    cfg = load_config(overrides={"allow_short_horizon": True, "N": "8", "c": 2})
    assert cfg.allow_short_horizon is True and cfg.N == 8 and cfg.c == 2.0


def test_cli_sweep_rejects_an_unknown_pipeline(tmp_path):
    # a bad pipeline is bad input (exit 2, one line), not a failed sweep value
    rc, err = _cli_exit(["sweep", "--param", "c", "--values", "1.0", "--pipeline", "bogus",
                         "--out", str(tmp_path / "sw")])
    assert rc == 2 and len(err.splitlines()) == 1 and "bogus" in err
    assert not (tmp_path / "sw").exists()


def test_cli_simulate_at_a_single_level(tmp_path):
    # N = 1 gives the drifting branch no increments: that clause is recorded, not asserted
    cfg_path = small_config(tmp_path, N=1, precision="float64")
    rc, err = _cli_exit(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "n1")])
    assert rc == 0, err
    manifest = json.loads((tmp_path / "n1" / "manifest.json").read_text())
    assert manifest["passed"] and manifest["config"]["N"] == 1
    gaps = json.loads((tmp_path / "n1" / "gap_report.json").read_text())
    drift = [cl for cl in gaps["clauses"] if cl["name"] == "drifting_branches_eventually_monotone"]
    assert [cl["passed"] for cl in drift] == [None]


def test_rounding_bound_over_the_target_fails_residual_ok(tmp_path, monkeypatch):
    # a rounding bound of one unit per unit of |G| |a| is over 1e-10 |b|: the
    # computed residual still meets the target, and the verdict fails through
    # the rounding term alone, by name, with the manifest written
    monkeypatch.setattr(hp, "ROUNDING_ULPS", 1 / dd.EPS)
    manifest, passed = run_pipeline(load_config(small_config(tmp_path)), "control", outdir=tmp_path / "o")
    assert not passed and manifest["failures"] == ["control.residual_ok"]
    assert json.loads((tmp_path / "o" / "manifest.json").read_text()) == manifest
    cert = json.loads((tmp_path / "o" / "control.json").read_text())["gram_condition"]["certificate"]
    assert cert["residual"] <= cert["target"] < cert["rounding_bound"]


def test_simulate_at_n96_keeps_the_duality_margin(tmp_path):
    # at N = 96 the space integrand oscillates at up to 2 kappa_max ~ 300 over
    # omega0; the space rule sized from kappa_max keeps the duality residual
    # a hundredfold under its 1e-5 bound (48 fixed nodes read 1.06e-5)
    manifest, passed = run_pipeline(load_config(None, {"N": 96, "seed": 1}), "simulate", outdir=tmp_path)
    assert passed, manifest["failures"]
    assert manifest["stages"]["simulate"]["verdicts"]["duality_max_residual"] <= 1e-7


def test_family_workload_figures_are_pinned(tmp_path):
    # the benchmark's family configuration (family_N = 4, seed 1): the product
    # layer's figures, pinned to 1e-9 relative so that a faster evaluation of
    # the product has to reproduce them; norm_ratio_bound is read on the
    # family's 16-node verification rule (10 nodes put 4.9e-8 of rule error in it)
    manifest, passed = run_pipeline(load_config(None, {"family_N": 4, "seed": 1}), "biorthogonal",
                                    outdir=tmp_path)
    assert passed, manifest["failures"]
    verdicts = manifest["stages"]["biorthogonal"]["verdicts"]
    pinned = {
        "product_type_empirical": 6.820332526262417,
        "product_growth_d1": 3.743881912057736,
        "derivative_envelope_c2": 0.03415180317407793,
        "norm_ratio_bound": 792.8117218589298,
    }
    for key, value in pinned.items():
        assert verdicts[key] == pytest.approx(value, rel=1e-9), key
    assert verdicts["gram_deviation"] <= 1e-8


def test_cli_type_budget_is_a_named_failure(tmp_path):
    # at c = 0.6 the compensated product's type (18.6) does not fit T/2 = 10.4:
    # the stage records the failure with its message and the manifest is written
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("c = 0.6\n")
    rc, err = _cli_exit(["biorthogonal", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 1 and "biorthogonal.family_constructed" in err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert "biorthogonal.family_constructed" in manifest["failures"]
    verdicts = manifest["stages"]["biorthogonal"]["verdicts"]
    assert verdicts["family_constructed"] is False
    assert "does not fit the horizon" in verdicts["family_error"]
    assert manifest["stages"]["biorthogonal"]["artifacts"] == []


def test_radius_of_the_product_audit_holds_its_strip_at_c_08(tmp_path):
    # at c = 0.8 the strip's corner |x_hi + i| rounds one ulp above hypot(x_hi, 1):
    # the audit's product is sized from the points it evaluates, so the run
    # reaches the named type-budget failure (11.464 against T/2 = 9.794)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("c = 0.8\n")
    rc, err = _cli_exit(["verify-all", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 1 and "biorthogonal.family_constructed" in err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert "biorthogonal.family_constructed" in manifest["failures"]
    assert "does not fit the horizon" in manifest["stages"]["biorthogonal"]["verdicts"]["family_error"]


def test_window_failure_is_named_and_the_full_run_goes_on(tmp_path, monkeypatch):
    # a tolerance the family cannot meet: a named failure at its one window, and
    # the control and simulate stages still run and pass
    build = bio.build_biorthogonal
    monkeypatch.setattr(bio, "build_biorthogonal", lambda *args, **kw: build(*args, **kw, tol=1e-30))
    cfg_path = small_config(tmp_path)
    rc, err = _cli_exit(["verify-all", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["failures"] == ["biorthogonal.family_constructed"]
    assert set(manifest["stages"]) == {"spectrum", "gaps", "biorthogonal", "control", "simulate"}
    assert manifest["stages"]["biorthogonal"]["verdicts"]["family_error"].startswith("family deviation")
    assert manifest["stages"]["simulate"]["verdicts"]["terminal_pass"] is True
