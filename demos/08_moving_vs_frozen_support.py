"""Why the support has to move: frozen-support runs leave memory behind.

The same synthesized control is applied twice, both runs propagated in the
co-moving frame: once with its support fixed at omega0 in that frame (the
synthesized situation), once pinned at omega0 in the original frame, which
in the co-moving frame is the same forcing with the per-mode phase
e^{-i c kappa_n t} (``Forcing.shift = -i c kappa``).  With the moving support
all three terminal norms vanish; with the frozen support the memory norm
stalls and does not decay as the truncation grows.
"""

from memwave import control as ctl
from memwave import simulate as sim
from memwave.biorthogonal import horizon_threshold
from memwave.fractional import build_eigenvalue_table
from memwave.moving import build_moving_spectrum

omega0 = (-0.3, 0.3)
table = build_eigenvalue_table(0.75, 16)

print(f"{'N':>3} {'moving: zeta(T)':>16} {'frozen: zeta(T)':>16}")
for N in (4, 8, 12, 16):
    ms = build_moving_spectrum(table, 0.5, 1.0, N)
    T = 1.05 * horizon_threshold(ms.c, ms.gamma)
    data = ctl.random_initial_data(ms, seed=1)
    gram = ctl.assemble_gram(ms, omega0, T)
    cf = ctl.synthesize_control(ctl.assemble_moments(data, ms), gram)

    simulator = sim.GalerkinSimulator(ms, omega0)
    _, rep_mov = simulator.run_to_T(data, cf, T, precision="mp")

    frozen_forcing = simulator.bind_forcing(cf)._replace(shift=-1j * ms.c * simulator.kappa)
    end = simulator.step_exact(simulator.initial_state(data), frozen_forcing, T)
    frozen_norms = simulator.weighted_norms(end)
    dnorm = data.weighted_norm()
    print(f"{N:>3} {rep_mov.ratios['zeta']:>16.2e} {frozen_norms['zeta']/dnorm:>16.2e}")

print("\nreported, not asserted: the frozen-support memory norm shows no decay "
      "trend in N, the moving-support one sits at solver precision")
