"""Biorthogonal family to the spectrum exponentials on [-T/2, T/2].

Builds the sampled family through the compensated product, shows the Gram
against the exponentials collapsing to the identity, and the norm growth
staying under a single multiple of rho_m.
"""

import pathlib

from memwave import biorthogonal as bio
from memwave.fractional import build_eigenvalue_table
from memwave.moving import build_moving_spectrum

OUT = pathlib.Path("demo_output")
OUT.mkdir(exist_ok=True)

table = build_eigenvalue_table(0.75, 32)
ms = build_moving_spectrum(table, 0.5, 1.0, 32)
T = 1.05 * bio.horizon_threshold(ms.c, ms.gamma)
print(f"horizon T = {T:.4f} (threshold {T/1.05:.4f})")

bf = bio.build_biorthogonal(ms, T, family_N=8)
print(f"family of {len(bf.modes)} members, frequency window |x| <= {bf.window:.0f}")
print(f"raw construction deviation {bf.raw_deviation:.2e} "
      f"(diagonal already right to {bf.raw_diag_error:.1e})")
print(f"shipped family Gram deviation {bf.gram_deviation:.2e} on an independent quadrature: "
      f"rule error {bf.rule_error:.2e} + inverse residual {bf.inverse_residual:.2e}")
print(f"norm bound: ||theta_m|| <= {bf.norm_ratio_bound():.3g} * rho_m over the family")

bf.export_manifest(OUT / "biorthogonal_manifest.json")

rep = bio.verify_lower_summation(bf, trials=150, seed=3)
print(f"lower summation: C = {rep.c46_hat:.3g}, {rep.trials} random vectors, "
      f"{rep.failures} failures; adversarial pair {rep.adversarial_pair} margin {rep.adversarial_margin:.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    for mode in [(1, 1), (2, 2), (4, 3)]:
        i = bf.index(*mode)
        ax.plot(bf.t_nodes, bf.theta[i].real, lw=0.8, label=f"Re theta{mode}")
    ax.set_xlabel("t")
    ax.legend()
    fig.tight_layout()
    fig.savefig(OUT / "theta_members.png", dpi=130)
    print(f"plot written to {OUT/'theta_members.png'}")
except ImportError:
    pass
