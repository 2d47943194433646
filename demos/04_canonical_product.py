"""The canonical product over the spectrum and its modulus on the real axis.

For 1/2 < s < 1 the raw product's log-modulus carries a genuine |x|^(2s-1)
trend (the dispersive comb offsets make the zero counting irregular); the
deficit-comb multiplier cancels the trend at negligible cost in exponential
type, which is what makes the Fourier-side construction usable.
"""

import pathlib

import numpy as np

from memwave import product as pr
from memwave.fractional import build_eigenvalue_table
from memwave.moving import build_moving_spectrum

OUT = pathlib.Path("demo_output")
OUT.mkdir(exist_ok=True)

table = build_eigenvalue_table(0.75, 48)
ms = build_moving_spectrum(table, 0.5, 1.0, 48)
pf = pr.build_product(ms)

comp, fit = pr.growth_compensator(pf, 300.0)
print(f"modulus trend fit: log|P(x)| ~ {fit.d1:.3f} |x|^{fit.alpha:.2f} + {fit.d0:.2f}")
print(f"compensator: {len(comp.t)} zero pairs, exponential type {comp.type:.3f}")

xs = np.linspace(0.5, 300.0, 1200)
raw = pf.log_eval(xs.astype(complex)).real
flat = pf.log_eval(xs.astype(complex), comp).real
np.savetxt(OUT / "product_modulus.csv",
           np.column_stack([xs, raw, flat]),
           delimiter=",", header="x,log_abs_P,log_abs_P_compensated", comments="")
print(f"raw log|P| spans [{raw.min():.1f}, {raw.max():.1f}]; "
      f"compensated spans [{flat.min():.1f}, {flat.max():.1f}]")

rep = pr.verify_product_properties(pf, family_N=12)
print(f"exponential type: empirical {rep.type_empirical:.3f} vs quoted {rep.type_theoretical:.3f}")
print(f"zero density {rep.zero_density:.3f}/unit (the quoted type would imply {rep.zero_density_reference:.3f})")
print(f"derivative envelope: rho_m |P'(z_m)| >= {rep.c2_hat:.4f} over the family")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(xs, raw, lw=0.8, label="log |P(x)|")
    ax.plot(xs, flat, lw=0.8, label="log |P(x) M(x)|")
    ax.set_xlabel("x")
    ax.legend()
    fig.tight_layout()
    fig.savefig(OUT / "product_modulus.png", dpi=130)
    print(f"plot written to {OUT/'product_modulus.png'}")
except ImportError:
    pass
