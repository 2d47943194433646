"""Configuration parsing, pipeline manifests, determinism, CLI exit codes."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave import cli
from memwave.runner import SWEEPABLE, ConfigError, load_config, parse_value, run_pipeline, sweep

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
    st.tuples(st.sampled_from(["T", "T_factor", "terminal_tol"]), _nonpositive),
    st.tuples(st.sampled_from(["sigma_xi", "sigma_xi_dot", "sigma_zeta"]), _negative),
)
# a table smaller than the default N = 16 is rejected, not silently enlarged
_short_table = st.tuples(st.just("n_table"), st.integers(1, 15))


# a third of the examples go to the short table, so the other two cases keep their 30 each
@settings(max_examples=90)
@given(case=st.one_of(_bad_values, _out_of_range, _short_table))
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


def test_cli_boolean_override_still_parses():
    cfg = load_config(overrides={"allow_short_horizon": True, "N": "8", "c": 2})
    assert cfg.allow_short_horizon is True and cfg.N == 8 and cfg.c == 2.0
