"""One benchmark sample: a fresh interpreter that runs one memwave pipeline.

run.py starts one worker per sample with a JSON spec as its only argument:

    python3 perfbench/worker.py '{"workload": "headline", "seed": 1, "mode": "run",
        "trace": false, "run_id": "...", "outdir": "...", "result": "...", "t_spawn": ...}'

``t_spawn`` is the parent's ``time.monotonic()`` just before the start; the
same clock read here once ``import memwave`` is done and the configuration
is validated gives the set-up time.  Mode ``setup`` stops there; mode
``run`` then runs the pipeline through the public API, checks its outputs
and writes everything as JSON to ``result``.  A worker that cannot import
memwave from this checkout's ``src`` or validate its configuration exits
non-zero without writing a result.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pathlib
import resource
import shutil
import sys
import time
import traceback

from workloads import MIN_TIME_NODES, MOMENT_TOL, NODES_PER_PERIOD, WORKLOADS

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# accuracy figures read from a run's outputs, by the stage that produces them
FIGURES = (
    "control.moment_residual_rel", "control.quadrature_moment_rel",
    "control.quadrature_moment_rel_elementwise", "control.quadrature_time_nodes",
    "control.gram_dim", "control.dps", "control.cond_scaled",
    "simulate.terminal_ratio_max", "simulate.duality_residual_max",
    "biorthogonal.gram_deviation",
)


def main(spec: dict) -> None:
    sys.path.insert(0, str(SRC))
    import memwave
    from memwave import runner

    workload = WORKLOADS[spec["workload"]]
    config = runner.load_config(overrides={**workload["config"], "seed": spec["seed"]})
    setup_s = time.monotonic() - spec["t_spawn"]
    if not pathlib.Path(memwave.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"memwave was imported from {memwave.__file__}, not from {SRC}")

    result = {"setup_s": setup_s, "provenance": provenance()}
    if spec["mode"] == "run":
        result.update(run_sample(runner, config, workload["pipeline"], spec))
    pathlib.Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


def provenance() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_sample(runner, config, pipeline: str, spec: dict) -> dict:
    outdir = pathlib.Path(spec["outdir"])
    tracer = None
    if spec["trace"]:
        from tracing import ROOT, Tracer

        tracer = Tracer(spec["run_id"])
        tracer.instrument()
    out: dict = {"traced": tracer is not None}
    try:
        root_span = tracer.span(ROOT) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with root_span:
            _, passed = runner.run_pipeline(config, pipeline, outdir=outdir)
        out["run_s"] = time.perf_counter() - t0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.update(check_outputs(config, outdir, passed))
    except Exception:
        out["error"] = traceback.format_exc()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if tracer is not None:
        out["trace"] = tracer.export()
    return out


def check_outputs(config, outdir: pathlib.Path, passed: bool) -> dict:
    """Gate inputs: verdict, manifest digest, independent moment check, accuracy figures."""
    raw = (outdir / "manifest.json").read_bytes()
    manifest = json.loads(raw)
    stages = manifest["stages"]
    failures = []
    if not (passed and manifest["passed"]):
        failures.append("manifest verdict failed: " + ", ".join(manifest["failures"]))

    figures = {}
    if "control" in stages:
        name = next(a for a in stages["control"]["artifacts"] if a.endswith(".json"))
        payload = json.loads((outdir / name).read_text(encoding="utf-8"))
        figures["control.moment_residual_rel"] = payload["residual"] / payload["rhs_norm"]
        figures["control.gram_dim"] = len(payload["coefficients"])
        figures["control.dps"] = payload["gram_condition"]["dps"]
        figures["control.cond_scaled"] = payload["gram_condition"]["scaled"]
        figures.update(moment_check(config, payload))
        if not figures["control.quadrature_moment_rel"] <= MOMENT_TOL:
            failures.append(f"quadrature moments miss by {figures['control.quadrature_moment_rel']:.3e}")
    if "simulate" in stages:
        verdicts = stages["simulate"]["verdicts"]
        figures["simulate.terminal_ratio_max"] = max(verdicts["terminal_ratios"].values())
        figures["simulate.duality_residual_max"] = verdicts["duality_max_residual"]
    if "biorthogonal" in stages:
        figures["biorthogonal.gram_deviation"] = stages["biorthogonal"]["verdicts"]["gram_deviation"]
    return {"manifest_sha256": hashlib.sha256(raw).hexdigest(), "gate_failures": failures, "figures": figures}


def moment_check(config, payload: dict) -> dict:
    """Recompute every moment of the exported control by quadrature.

    The control is rebuilt from its exported float64 coefficients on a
    spectrum built from the configuration, not taken from the pipeline, and
    its moments are compared with targets built from the seeded initial
    data.  The time-node count follows the fastest oscillation of the
    integrand: the library default of 360 nodes under-resolves the ~240
    periods at N = 16 and misses by 3.9 there.
    """
    import numpy as np
    from memwave import control as ctl
    from memwave import fractional as fr
    from memwave import moving

    n_max = max(config.n_table, 4 * config.family_N, config.N)  # the runner's table size
    table = fr.build_eigenvalue_table(config.s, n_max, backend=config.backend)
    ms = moving.build_moving_spectrum(table, config.M, config.c, config.N)
    modes = [(c["n"], c["j"]) for c in payload["coefficients"]]
    control = ctl.ControlField(
        modes=modes,
        a=np.array([complex(c["re"], c["im"]) for c in payload["coefficients"]]),
        omega0=tuple(payload["omega0"]), T=payload["T"], residual=payload["residual"],
        rhs_norm=payload["rhs_norm"], norm=payload["control_norm"], method=payload["method"],
        gram_condition=payload["gram_condition"], ms=ms,
    )
    msys = ctl.assemble_moments(ctl.random_initial_data(ms, seed=config.seed), ms)
    b = np.array([msys.rhs_of(n, j) for n, j in modes])
    fastest = max(abs(ms.eigenvalue(n, j).imag) for n, j in modes)
    periods = control.T * 2.0 * fastest / (2.0 * math.pi)
    nt = max(MIN_TIME_NODES, math.ceil(NODES_PER_PERIOD * periods))
    miss = np.abs(ctl.quadrature_moments(control, ms, nt=nt) - b)
    return {
        "control.quadrature_moment_rel": float(miss.max() / np.abs(b).max()),
        "control.quadrature_moment_rel_elementwise": float(np.max(miss / np.abs(b))),
        "control.quadrature_time_nodes": nt,
    }


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
