"""Minimum-norm control from the moment problem.

Assembles the moment right-hand sides from random smooth initial data, solves
the Gram system at extended precision, in double-double and in mpmath, prints
each solve's residual certificate, cross-checks every moment by plain
quadrature, and reports the observability constant certifying solvability.
"""

import pathlib

import numpy as np

from memwave import control as ctl
from memwave.biorthogonal import horizon_threshold
from memwave.fractional import build_eigenvalue_table
from memwave.moving import build_moving_spectrum

OUT = pathlib.Path("demo_output")
OUT.mkdir(exist_ok=True)

table = build_eigenvalue_table(0.75, 12)
ms = build_moving_spectrum(table, 0.5, 1.0, 12)
T = 1.05 * horizon_threshold(ms.c, ms.gamma)
omega0 = (-0.3, 0.3)

gram = ctl.assemble_gram(ms, omega0, T)
print(f"Gram over {len(gram.modes)} kernels: condition {gram.cond_raw:.2e} raw, "
      f"{gram.cond_scaled:.2e} rho-scaled")

data = ctl.random_initial_data(ms, seed=7)
print(f"data norm (sigma = 3, 2 weights): {data.weighted_norm():.4f}")
msys = ctl.assemble_moments(data, ms)
cf = ctl.synthesize_control(msys, gram)
print(f"synthesis in {cf.gram_condition['arithmetic']} arithmetic ({cf.gram_condition['dps']}-digit spectrum): "
      f"moment residual {cf.residual:.2e}, control norm {cf.norm:.4f}")
# the same system in mpmath: a terminal tolerance beyond double-double's digits picks it
cf_mp = ctl.synthesize_control(msys, gram, terminal_tol=1e-25)
for c in (cf, cf_mp):
    cert = c.gram_condition["certificate"]
    print(f"{c.arithmetic:>2} solve (rung {c.gram_condition['rung']}): residual {cert['residual']:.2e} + rounding "
          f"bound {cert['rounding_bound']:.2e} <= target {cert['target']:.2e} (unscaled system): "
          f"{cert['residual'] + cert['rounding_bound'] <= cert['target']}")

qm = ctl.quadrature_moments(cf, ms)
rel = np.max(np.abs(qm - msys.b) / np.abs(msys.b))
print(f"independent quadrature reproduces every moment to {rel:.2e} relative")

obs = ctl.certify_observability(ms, omega0, T, trials=200, seed=7, gram=gram)
print(f"observability constant {obs.c_obs_hat:.4f} "
      f"(worst random ratio {obs.c_obs_random:.2e}, adversarial pair {obs.adversarial_pair})")

cf.to_json(OUT / "control.json")
cf.sample_csv(OUT / "control_samples.csv")
print(f"control written to {OUT/'control.json'}")
