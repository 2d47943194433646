"""Command-line entry points for the experiment pipelines.

Verbs mirror the pipeline stages; every verb writes a manifest into the
output directory and exits 0 only when all recorded verdicts pass.

    python -m memwave spectrum --config run.cfg --out results
    python -m memwave simulate --seed 3
    python -m memwave sweep --param c --values 0.8,1.0,1.4
    python -m memwave verify-all --out results
"""

from __future__ import annotations

import argparse
import sys

from .runner import ConfigError, load_config, parse_value, run_pipeline, sweep

VERBS = ("spectrum", "gaps", "biorthogonal", "control", "simulate", "sweep", "verify-all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memwave", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--config", metavar="PATH", default=None, help="key = value configuration file")
        p.add_argument("--out", metavar="DIR", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="random seed override")
        p.add_argument("--allow-short-horizon", action="store_true",
                       help="permit T below the horizon threshold (watermarked)")
        if verb == "sweep":
            p.add_argument("--param", required=True, help="one of c, T, T_factor, N, M, s")
            p.add_argument("--values", required=True, help="comma-separated values")
            p.add_argument("--pipeline", default="simulate")
    return parser


def _flag_text(key: str, value: bool) -> str:
    if key.endswith("_watermark"):  # informational flag, not a verdict
        return "yes" if value else "no"
    return "ok" if value else "FAIL"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "outdir": args.out}
    if args.allow_short_horizon:
        overrides["allow_short_horizon"] = True
    try:
        config = load_config(args.config, overrides={k: v for k, v in overrides.items() if v is not None})
        if args.verb == "sweep":
            values = [parse_value(args.param, v) for v in args.values.split(",")]
            rows, path = sweep(config, args.param, values, pipeline=args.pipeline)
            passed = sum(r["passed"] for r in rows)
            print(f"sweep over {args.param}: {passed}/{len(rows)} runs passed -> {path}")
            return 0 if passed == len(rows) else 1
        pipeline = "full" if args.verb == "verify-all" else args.verb
        manifest, passed = run_pipeline(config, pipeline)
        for stage, rec in manifest["stages"].items():
            flags = {k: v for k, v in rec["verdicts"].items() if isinstance(v, bool)}
            line = ", ".join(f"{k}={_flag_text(k, v)}" for k, v in flags.items())
            print(f"[{stage}] {line}")
        if not passed:
            print("FAILED checks: " + ", ".join(manifest["failures"]), file=sys.stderr)
            return 1
        print(f"all verdicts pass (config {manifest['config_hash']})")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
