"""memwave benchmark: fresh-process pipeline runs, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload headline --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --self-check

Each sample is a fresh interpreter (worker.py) that imports memwave from
``src``, validates the workload's configuration and runs one pipeline
through ``memwave.runner.run_pipeline``; the loop is closed (one sample at a
time) with BLAS threads capped at the number of usable cores.  A few extra
interpreters only import and validate, so that ``setup_s`` is a median over
several set-ups.  Samples are started while the next one is expected to end
within ``--seconds``, and at least two run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced samples and reports its per-layer metrics.
Every sample passes through the correctness gate; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--self-check`` runs two samples of every workload on a
held-out seed and reports whether each passes the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from tracing import LAYERS, ROOT
from worker import FIGURES, THREAD_VARS
from workloads import HELD_OUT_SEED, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
SETUP_PROBES = 3
MIN_SAMPLES = 2
HARD_LIMIT_S = 165.0  # no sample starts, or runs on, past this; the run ends within 180 s
TAIL_BEYOND = 10


class SetupFailed(RuntimeError):
    pass


class Bench:
    def __init__(self, root: pathlib.Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = root / ".perfbench_out" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, **{var: str(self.nproc) for var in THREAD_VARS})
        self.start = time.monotonic()
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def spawn(self, mode: str, traced: bool = False) -> dict:
        """Run one worker to completion; its result, or an error record if it timed out or died."""
        tag = f"{mode}-{self.count:03d}"
        self.count += 1
        result_path = self.work / f"{tag}.json"
        spec = {
            "workload": self.workload, "seed": self.seed, "mode": mode, "trace": traced,
            "run_id": f"{self.work.name}/{tag}", "outdir": str(self.work / tag),
            "result": str(result_path),
        }
        timeout = HARD_LIMIT_S - self.elapsed()
        spec["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=self.root, env=self.env, stdout=sys.stderr, timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            return {"traced": traced, "error": f"timed out after {timeout:.0f} s"}
        if proc.returncode == 0 and result_path.is_file():
            return json.loads(result_path.read_text(encoding="utf-8"))
        if mode == "setup":
            raise SetupFailed(f"set-up worker exited with code {proc.returncode}")
        return {"traced": traced, "error": f"worker exited with code {proc.returncode} and no result"}

    def measure(self, seconds: float) -> tuple[list, list]:
        setups = [self.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        samples, walls = [], []
        while True:
            expected = self.elapsed() + max(walls, default=0.0)
            if len(samples) >= MIN_SAMPLES and expected > seconds or expected > HARD_LIMIT_S:
                break
            traced = self.trace and len(samples) % 2 == 1
            t0 = time.monotonic()
            samples.append(self.spawn("run", traced))
            walls.append(time.monotonic() - t0)
        gate(samples)
        setups += [s["setup_s"] for s in samples if "setup_s" in s]
        return setups, samples


def gate(samples: list) -> None:
    """Mark each sample with the reasons it fails the correctness gate."""
    reference = None
    for s in samples:
        reasons = list(s.get("gate_failures", []))
        if "error" in s:
            reasons.append(s["error"].strip().splitlines()[-1])
        digest = s.get("manifest_sha256")
        if digest is not None:
            reference = reference or digest
            if digest != reference:
                reasons.append("manifest bytes differ from the first run with this seed")
        s["failed_because"] = reasons


def tail(values: list) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it: (value, percentile, n).

    With too few samples for that, the maximum (percentile 100) is reported.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - TAIL_BEYOND
    if k < 1:
        return xs[-1], 100.0, n
    return xs[k - 1], 100.0 * k / n, n


def end_to_end(setups: list, samples: list) -> tuple[dict, str]:
    """End-to-end values over the untraced samples, and how the tail was taken."""
    timed = [s for s in samples if not s["traced"] and "run_s" in s]
    if not timed:
        return {}, "no timed runs"
    value, pct, n = tail([s["run_s"] for s in timed])
    note = f"p{pct:g} of {n} untraced runs"
    if pct == 100:
        note += f" (fewer than {TAIL_BEYOND + 1}, so the maximum)"
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(s["run_s"] for s in timed),
        "run_s.tail": value,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
    }, note


def per_layer(samples: list, names: list) -> tuple[dict, list]:
    """Median over traced samples of each per-layer metric.

    A layer whose every binding is gone reads None (missing); an accuracy
    figure of a stage the workload does not run reads 0 and is listed as
    not run.
    """
    traced = [s for s in samples if s["traced"] and "trace" in s]
    untraced = [s["run_s"] for s in samples if not s["traced"] and "run_s" in s]
    if not traced:
        return {}, []
    missing = set(traced[0]["trace"]["missing"])
    values, not_run = {}, []
    for name in names:
        layer, _, kind = name.rpartition(".")
        if name == "hp.lu_factorizations":
            layer, kind = "hp.lu_solve", "calls"
        if name == "trace.overhead_s":
            times = [s["run_s"] for s in traced if "run_s" in s]
            values[name] = statistics.median(times) - statistics.median(untraced) if times and untraced else None
        elif layer in missing:
            values[name] = None
        elif kind in ("calls", "self_s") and (layer in LAYERS or layer == ROOT):
            values[name] = statistics.median(s["trace"][kind].get(layer, 0) for s in traced)
        elif name in FIGURES:
            present = [s["figures"][name] for s in traced if name in s.get("figures", {})]
            values[name] = statistics.median(present) if present else 0
            if not present:
                not_run.append(name)
        else:
            values[name] = statistics.median(s["trace"]["counts"].get(name, 0) for s in traced)
    return values, not_run


def provenance(root: pathlib.Path, bench: Bench, samples: list, seconds: float) -> dict:
    sha = None
    if (root / ".git").exists():  # git would otherwise search the directories above
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    worker_side = next((s["provenance"] for s in samples if "provenance" in s), {})
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        **worker_side,
        "nproc": bench.nproc,
        "workload": bench.workload,
        "workload_config": WORKLOADS[bench.workload],
        "seed": bench.seed,
        "run_seconds": seconds,
        "trace": bench.trace,
    }


def run(args) -> int:
    root = pathlib.Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    bench = Bench(root, args.workload, args.seed, bool(args.trace))
    setups, samples = bench.measure(args.seconds)
    prov = provenance(root, bench, samples, args.seconds)
    if prov.get("mpmath_backend") != "python":
        raise SetupFailed(f"mpmath backend is {prov.get('mpmath_backend')!r}, expected 'python'")

    failed = sum(1 for s in samples if s["failed_because"])
    e2e, tail_note = end_to_end(setups, samples)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, not_run = per_layer(samples, [m["name"] for m in listed])
    else:
        values, not_run = e2e, []

    wl = WORKLOADS[args.workload]
    print(f"memwave benchmark: workload {args.workload} ({wl['pipeline']} {wl['config']}), "
          f"seed {args.seed}, trace {args.trace}, {len(samples)} runs, {len(setups)} set-ups")
    for s in samples:
        line = f"  run {'traced  ' if s['traced'] else 'untraced'} "
        line += f"run_s={s['run_s']:.4f}" if "run_s" in s else "no time"
        print(line + (f"  FAILED: {'; '.join(s['failed_because'])}" if s["failed_because"] else "  ok"))
    for m in spec["end_to_end"]:
        v = e2e.get(m["name"])
        note = tail_note if m["name"] == "run_s.tail" else ""
        print(f"  {m['name']:<14} {'-' if v is None else f'{v:.6g}':>12} {m['unit']:<6} {note}")
    print(f"  {'failed_frac':<14} {failed / max(len(samples), 1):>12.6g} ratio  ({failed} of {len(samples)} runs)")
    if args.trace:
        for m in listed:
            v = values.get(m["name"])
            shown = "missing" if v is None else ("n/a" if m["name"] in not_run else f"{v:.6g}")
            print(f"  {m['name']:<44} {shown:>12} {m['unit']}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    report = bench.work / "report.json"
    report.write_text(json.dumps({"provenance": prov, "setup_s": setups, "samples": samples,
                                  "metrics": values, "not_run": not_run}), encoding="utf-8")
    print(f"report {report.relative_to(root)}")
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0 and bool(samples), "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


def self_check() -> int:
    """Two samples of every workload on the held-out seed must pass the gate."""
    ok = True
    for name in WORKLOADS:
        bench = Bench(pathlib.Path.cwd(), name, HELD_OUT_SEED, trace=False)
        _, samples = bench.measure(0.0)
        reasons = [r for s in samples for r in s["failed_because"]]
        ok = ok and not reasons
        print(f"self-check {name} seed {HELD_OUT_SEED}: "
              + ("pass" if not reasons else "FAIL: " + "; ".join(reasons)))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (pathlib.Path.cwd() / "src" / "memwave" / "__init__.py").is_file():
        print("perfbench: run from a memwave checkout root (src/memwave not found)", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except SetupFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
