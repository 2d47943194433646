"""Configuration-driven experiment pipelines with persisted artifacts.

A run takes a plain-text key=value configuration, executes a named stage
chain deterministically, writes every module export into the output
directory, and records each numeric verdict in one manifest keyed by the
configuration hash.  Identical configuration and seed reproduce the manifest
byte for byte (no timestamps inside).
"""

from __future__ import annotations

import csv
import hashlib
import math
import pathlib
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from . import __version__
from . import biorthogonal as bio
from . import control as ctl
from . import fractional as fr
from . import moving
from . import product as pr
from . import simulate as sim

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_value", "run_pipeline", "sweep", "PIPELINES"]

PIPELINES = ("spectrum", "gaps", "biorthogonal", "control", "simulate", "full")


class ConfigError(ValueError):
    pass


def _parse_bool(value) -> bool:
    text = str(value).lower()
    if text in ("true", "yes", "1", "on"):
        return True
    if text in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {value!r}")


def _parse_float(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"not a finite number: {value!r}")
    return x


def _parse_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (str, int, np.integer)):
        raise ConfigError(f"not an integer: {value!r}")
    return int(value)


_SCHEMA = {
    # name: (parser, default)
    "s": (_parse_float, 0.75),
    "M": (_parse_float, 0.5),
    "c": (_parse_float, 1.0),
    "T_factor": (_parse_float, 1.05),
    "T": (_parse_float, None),
    "N": (_parse_int, 16),
    "family_N": (_parse_int, 12),
    "n_table": (_parse_int, 200),
    "omega0_lo": (_parse_float, -0.3),
    "omega0_hi": (_parse_float, 0.3),
    "sigma_xi": (_parse_float, ctl.SIGMA_WEIGHTS[0]),
    "sigma_xi_dot": (_parse_float, ctl.SIGMA_WEIGHTS[1]),
    "sigma_zeta": (_parse_float, ctl.SIGMA_WEIGHTS[2]),
    "backend": (str, "asymptotic"),
    "precision": (str, "mp"),
    "terminal_tol": (_parse_float, 1.0e-6),
    "gap_epsilon": (_parse_float, None),
    "trials": (_parse_int, 200),
    "seed": (_parse_int, 0),
    "outdir": (str, "out"),
    "allow_short_horizon": (_parse_bool, False),
}


@dataclass
class RunConfig:
    values: dict

    def __getattr__(self, name):
        try:
            return self.__dict__["values"][name]
        except KeyError:
            raise AttributeError(name) from None

    def validated(self) -> "RunConfig":
        v = self.values
        for key, value in v.items():
            if value is not None:
                v[key] = parse_value(key, value)
        if not 0.0 < v["s"] < 1.0:
            raise ConfigError("s must lie in (0,1)")
        if v["M"] == 0.0:
            raise ConfigError("M must be nonzero")
        if min(v["N"], v["family_N"], v["n_table"], v["trials"]) < 1:
            raise ConfigError("N, family_N, n_table and trials must be positive")
        if v["n_table"] < max(v["N"], 4 * v["family_N"]):
            raise ConfigError(
                f"n_table = {v['n_table']} must be at least N = {v['N']} and 4 family_N = {4 * v['family_N']}"
            )
        if not (v["T_factor"] > 0.0 and v["terminal_tol"] > 0.0
                and all(v[key] is None or v[key] > 0.0 for key in ("T", "gap_epsilon"))):
            raise ConfigError("T, T_factor, terminal_tol and gap_epsilon must be positive")
        if min(v["sigma_xi"], v["sigma_xi_dot"], v["sigma_zeta"]) < 0.0:
            raise ConfigError("the sigma weights must be nonnegative")
        if not v["omega0_hi"] > v["omega0_lo"]:
            raise ConfigError("omega0 must be a nonempty interval")
        if v["backend"] not in ("asymptotic", "discretized"):
            raise ConfigError("backend must be asymptotic or discretized")
        if v["precision"] not in ("mp", "float64"):
            raise ConfigError("precision must be mp or float64")
        if v["s"] <= 0.5:
            raise ConfigError("control pipelines require s > 1/2")
        if v["c"] == 0.0:
            raise ConfigError("velocity c = 0 is excluded")
        return self

    def hash(self) -> str:
        """sha256 of the key = value lines but ``outdir``, which says where the outputs go, not what they are."""
        text = "".join(f"{k} = {self.values[k]}\n" for k in sorted(self.values) if k != "outdir")
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def omega0(self):
        return (self.values["omega0_lo"], self.values["omega0_hi"])

    def with_overrides(self, **kw) -> "RunConfig":
        vals = dict(self.values)
        vals.update(kw)
        return RunConfig(vals).validated()


def parse_value(key: str, value):
    """One configuration value through its schema parser; ConfigError if it does not parse."""
    if key not in _SCHEMA:
        raise ConfigError(f"unknown key {key!r}")
    try:
        return _SCHEMA[key][0](value)
    except (TypeError, ValueError) as exc:  # ConfigError included
        raise ConfigError(f"bad value for {key}: {exc}") from None


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Typed key=value configuration; unknown keys are rejected."""
    values = {k: default for k, (_, default) in _SCHEMA.items()}
    if path is not None:
        for lineno, raw in enumerate(pathlib.Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            try:
                values[key] = parse_value(key, text)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if overrides:
        for key, val in overrides.items():
            if key not in _SCHEMA:
                raise ConfigError(f"unknown override {key!r}")
            if val is not None:
                values[key] = val
    return RunConfig(values).validated()


def _resolve_horizon(config: RunConfig, gamma: float) -> tuple[float, bool]:
    threshold = moving.horizon_threshold(config.c, gamma)
    T = config.values["T"] if config.values["T"] is not None else config.T_factor * threshold
    below = T <= threshold
    if below and not config.allow_short_horizon:
        raise ConfigError(
            f"T = {T:.4f} is below the horizon threshold {threshold:.4f}; "
            "set allow_short_horizon = true for below-threshold sweeps"
        )
    return float(T), below


class _Run:
    def __init__(self, config: RunConfig, outdir: pathlib.Path):
        self.config = config
        self.outdir = outdir
        self.stages: dict = {}
        self.cache: dict = {}

    def record(self, stage: str, verdicts: dict, artifacts: list):
        self.stages[stage] = {"verdicts": verdicts, "artifacts": sorted(artifacts)}

    # ---- stage implementations -------------------------------------------
    def table(self) -> fr.EigenvalueTable:
        if "table" not in self.cache:
            cfg = self.config
            self.cache["table"] = fr.build_eigenvalue_table(cfg.s, cfg.n_table, backend=cfg.backend)
        return self.cache["table"]

    def spectrum_stage(self):
        cfg = self.config
        table = self.table()
        path = self.outdir / "eigenvalues.csv"
        table.to_csv(path)
        artifacts = [path.name]
        verdicts = {
            "gap_certified": table.gap_certified,
            "gap_gamma": table.gap_gamma,
            "gap_threshold": table.gap_threshold,
        }
        if cfg.backend == "asymptotic":
            agr = fr.compare_backends(table, fr.build_eigenvalue_table(cfg.s, 32, backend="discretized"))
            verdicts["backend_agreement"] = agr.passed
            verdicts["backend_max_rel"] = agr.max_rel
        sym = fr.verify_symbol_identity(math.pi / 2, cfg.s, tol=1e-3)
        verdicts["symbol_identity"] = sym.passed
        verdicts["symbol_max_rel_error"] = sym.max_rel_error
        self.record("spectrum", verdicts, artifacts)
        return verdicts

    def ms(self) -> moving.MovingSpectrum:
        if "ms" not in self.cache:
            self.cache["ms"] = moving.build_moving_spectrum(self.table(), self.config.M, self.config.c, self.config.N)
        return self.cache["ms"]

    def gaps_stage(self):
        cfg = self.config
        ms = self.ms()
        report = moving.gap_diagnostics(ms, epsilon=cfg.values["gap_epsilon"])
        path = self.outdir / "gap_report.json"
        report.to_json(path)
        lam_path = self.outdir / "lambda_table.csv"
        moving.lambda_table_to_csv(ms, lam_path)
        frame = moving.frame_bounds(ms, trials=max(100, cfg.trials), seed=cfg.seed)
        verdicts = {
            "gap_clauses": report.passed,
            "frame_sandwich": frame.passed,
            "frame_a1": frame.a1_hat,
            "frame_a2": frame.a2_hat,
            "critical_velocity": ms.critical.velocity if ms.critical else None,
        }
        self.record("gaps", verdicts, [path.name, lam_path.name])
        return verdicts

    def biorthogonal_stage(self):
        cfg = self.config
        table = self.table()
        T, below = _resolve_horizon(cfg, table.gap_gamma)
        if below:  # the Gram control may run there; the family has no construction
            raise ConfigError(f"T = {T:.4f} is below the horizon threshold, where the biorthogonal family has none")
        ms4 = moving.build_moving_spectrum(table, cfg.M, cfg.c, 4 * cfg.family_N)
        prep = pr.verify_product_properties(ms4, cfg.family_N)
        verdicts = {
            "product_properties": prep.passed,
            "product_type_empirical": prep.type_empirical,
            "product_growth_d1": prep.growth.d1,
            "derivative_envelope_c2": prep.c2_hat,
        }
        try:
            bf = bio.build_biorthogonal(ms4, T, family_N=cfg.family_N)
        except bio.FamilyConstructionError as exc:  # a named failure; the later stages still run
            verdicts.update(family_constructed=False, family_error=str(exc))
            self.record("biorthogonal", verdicts, [])
            return verdicts
        man_path = self.outdir / "biorthogonal_manifest.json"
        bf.export_manifest(man_path)
        low = bio.verify_lower_summation(bf, trials=cfg.trials, seed=cfg.seed)
        verdicts.update({
            "family_constructed": True,
            "gram_deviation": bf.gram_deviation,
            "gram_within_1e3": bool(bf.gram_deviation <= 1e-3),
            "norm_ratio_bound": bf.norm_ratio_bound(),
            "lower_summation": low.passed,
        })
        self.record("biorthogonal", verdicts, [man_path.name])
        return verdicts

    def control_stage(self):
        cfg = self.config
        ms = self.ms()
        T, below = _resolve_horizon(cfg, self.table().gap_gamma)
        gram = ctl.assemble_gram(ms, cfg.omega0(), T)
        data = ctl.random_initial_data(ms, seed=cfg.seed)
        msys = ctl.assemble_moments(data, ms)
        cf = ctl.synthesize_control(msys, gram, terminal_tol=cfg.terminal_tol)
        path = self.outdir / ("control_belowT.json" if below else "control.json")
        cf.to_json(path)
        cf.sample_csv(self.outdir / "control_samples.csv", nt=48, nx=24)
        obs = ctl.certify_observability(ms, cfg.omega0(), T, trials=cfg.trials, seed=cfg.seed, gram=gram)
        verdicts = {
            "moment_residual": cf.residual,
            "residual_ok": bool(cf.residual <= 1e-10 * max(cf.rhs_norm, 1e-300)),
            "control_norm": cf.norm,
            "gram_cond_scaled": gram.cond_scaled,
            "observability": obs.passed,
            "observability_constant": obs.c_obs_hat,
            "below_threshold_watermark": below,
        }
        self.cache["control"] = (data, cf, T)
        self.record("control", verdicts, [path.name, "control_samples.csv"])
        return verdicts

    def simulate_stage(self):
        cfg = self.config
        ms = self.ms()
        data, cf, T = self.cache["control"]
        sigma = (cfg.sigma_xi, cfg.sigma_xi_dot, cfg.sigma_zeta)
        simulator = sim.GalerkinSimulator(ms, cfg.omega0(), sigma_weights=sigma)
        _, report = simulator.run_to_T(data, cf, T, tol_rel=cfg.terminal_tol, n_checkpoints=24, precision=cfg.precision)
        rep_path = self.outdir / "terminal_report.json"
        report.to_json(rep_path)
        report.trajectory_csv(self.outdir / "trajectory.csv")
        rng = default_rng(cfg.seed + 1)
        modes = [(n, j) for n in ms.mode_indices() for j in (1, 2, 3)]
        coeff_sets = [{mk: complex(rng.standard_normal(), rng.standard_normal()) for mk in modes}
                      for _ in range(8)]
        residuals = sim.duality_residuals(data, cf, coeff_sets, T, ms)
        verdicts = {
            "terminal_pass": report.passed,
            "terminal_ratios": report.ratios,
            "duality_max_residual": float(max(residuals)),
            "duality_ok": bool(max(residuals) <= 1e-5),
            "plane_wave_gram_deviation": simulator.gram.deviation,
        }
        self.record("simulate", verdicts, [rep_path.name, "trajectory.csv"])
        return verdicts


def run_pipeline(config: RunConfig, pipeline: str, outdir=None):
    """Execute the stage chain; returns (manifest dict, passed flag)."""
    if pipeline not in PIPELINES:
        raise ConfigError(f"unknown pipeline {pipeline!r}; choose from {PIPELINES}")
    out = pathlib.Path(outdir if outdir is not None else config.outdir)
    out.mkdir(parents=True, exist_ok=True)
    run = _Run(config, out)
    chain = {
        "spectrum": ["spectrum"],
        "gaps": ["spectrum", "gaps"],
        "biorthogonal": ["spectrum", "biorthogonal"],
        "control": ["spectrum", "gaps", "control"],
        "simulate": ["spectrum", "gaps", "control", "simulate"],
        "full": ["spectrum", "gaps", "biorthogonal", "control", "simulate"],
    }[pipeline]
    for stage in chain:
        getattr(run, f"{stage}_stage")()

    failures = []
    for stage, rec in run.stages.items():
        for key, val in rec["verdicts"].items():
            if key.endswith("_watermark"):
                continue  # informational flag, not a pass/fail verdict
            if isinstance(val, bool) and not val:
                failures.append(f"{stage}.{key}")
    manifest = {
        "tool": "memwave",
        "version": __version__,
        "pipeline": pipeline,
        "config": {k: config.values[k] for k in sorted(config.values)},
        "config_hash": config.hash(),
        "stages": run.stages,
        "failures": failures,
        "passed": not failures,
    }
    fr.write_json(out / "manifest.json", manifest)
    return manifest, not failures


SWEEPABLE = ("c", "T", "N", "M", "s", "T_factor")

# sweep CSV column -> (stage, verdict, key within that verdict); the cell is
# empty where the pipeline runs no such stage
_SWEEP_COLUMNS = {
    "observability_constant": ("control", "observability_constant"),
    "control_norm": ("control", "control_norm"),
    "moment_residual": ("control", "moment_residual"),
    "gram_cond_scaled": ("control", "gram_cond_scaled"),
    "terminal_xi": ("simulate", "terminal_ratios", "xi"),
    "terminal_xi_dot": ("simulate", "terminal_ratios", "xi_dot"),
    "terminal_zeta": ("simulate", "terminal_ratios", "zeta"),
}


def sweep(config: RunConfig, parameter: str, values, pipeline: str = "simulate", outdir=None):
    """Run the pipeline per parameter value and aggregate key scalars."""
    if parameter not in SWEEPABLE:
        raise ConfigError(f"sweep parameter must be one of {SWEEPABLE}")
    if pipeline not in PIPELINES:
        raise ConfigError(f"unknown pipeline {pipeline!r}; choose from {PIPELINES}")
    out = pathlib.Path(outdir if outdir is not None else config.outdir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        sub = out / f"{parameter}_{value}"
        try:
            cfgv = config.with_overrides(**{parameter: value})
            manifest, ok = run_pipeline(cfgv, pipeline, outdir=sub)
            row = {"parameter": parameter, "value": value, "passed": ok, "error": ""}
            for column, (stage, *lookup) in _SWEEP_COLUMNS.items():
                verdict = manifest["stages"].get(stage, {}).get("verdicts")
                for key in lookup:
                    verdict = (verdict or {}).get(key)
                row[column] = verdict
        except Exception as exc:  # per-value failures recorded, sweep continues
            row = {"parameter": parameter, "value": value, "passed": False, "error": str(exc)}
        rows.append(row)
    keys = ["parameter", "value", "passed", "error", *_SWEEP_COLUMNS]
    path = out / f"sweep_{parameter}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in keys})
    return rows, path
