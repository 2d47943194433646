"""Parameter sweeps through the pipeline runner.

Two reported trends at fixed horizon: the observability constant blows up as
the velocity slows toward the excluded value c = 0 (the spectral combs all
drift at rate c, so slow supports see near-degenerate exponentials), and
shortening the horizon below the working threshold (allowed only with the
explicit override, watermarked in the outputs) degrades the constant; the
Gram scaled to unit diagonal, which the solve factors, stays near condition
1e2 across the sweep.  A dip pinned at c = gamma does not show up at desk
scale: with 1/2 < s < 1 every spectral comb has asymptotic slope c, so among
the excluded velocities only c = 0 is structurally singular for the
truncated spectrum; the measured sweep records this.
"""

import pathlib

from memwave.runner import load_config, sweep

OUT = pathlib.Path("demo_output") / "sweeps"

base = load_config(None, overrides={
    "N": 6, "family_N": 4, "n_table": 32, "trials": 80,
    "precision": "float64", "outdir": str(OUT),
    "T": 26.0, "allow_short_horizon": True,
})

gamma = 1.5707963
cs = [0.3, 0.45, 0.6, 0.8, 1.1, 1.35, 1.5, 1.65, 1.9, 2.4]
rows, path = sweep(base, "c", cs, pipeline="control")
print(f"velocity sweep at fixed T = 26 straddling gamma = {gamma:.4f}  ->  {path}")
print(f"{'c':>6} {'C_obs':>12} {'|u|':>10}")
for row in rows:
    if row["passed"]:
        print(f"{row['value']:>6} {row['observability_constant']:>12.4g} {row['control_norm']:>10.4g}")
    else:
        print(f"{row['value']:>6} {'(failed)':>12} {row['error'][:48]}")

rows, path = sweep(base, "T", [8.0, 14.0, 20.0, 26.0], pipeline="control")
print(f"\nhorizon sweep (working threshold ~ 19.7 at c = 1; below-threshold runs watermarked)  ->  {path}")
print(f"{'T':>6} {'cond(DGD)':>16} {'C_obs':>12}  (D scales G to unit diagonal)")
for row in rows:
    print(f"{row['value']:>6} {row['gram_cond_scaled']:>16.4g} {row['observability_constant']:>12.4g}")
