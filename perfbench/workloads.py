"""Workload definitions and the correctness gate's constants.

Every workload runs at the configuration of record (s = 0.75, c = 1,
omega0 = (-0.3, 0.3), T = 1.05x the horizon threshold, the library
defaults); only the pipeline and the keys below differ.  The sizes are
chosen so that one pipeline run fits several times into a benchmark run;
README.md explains the choice and what each workload isolates.
"""

WORKLOADS = {
    # mp moment synthesis dominates: 4 mpmath LU factorizations at m = 48
    "headline": {"pipeline": "simulate", "config": {"M": 0.5, "N": 8, "precision": "mp"}},
    # the product / compensator layer; no mp solve at all
    "family": {"pipeline": "biorthogonal", "config": {"family_N": 4}},
    # same synthesis path at m = 48 but scaled condition ~2e21 (dps 51)
    "strong_memory": {"pipeline": "simulate", "config": {"M": 2.0, "N": 8, "precision": "mp"}},
}

# Independent moment check: normwise relative miss of the float64 quadrature.
MOMENT_TOL = 1.0e-6
# Gauss-Legendre time nodes per oscillation of the fastest moment integrand
# (frequency 2 max|Im lam| over (0, T)), never fewer than the library default.
NODES_PER_PERIOD = 3.0
MIN_TIME_NODES = 360

# Seed the self-check uses; never one of the seeds the benchmark was tuned on.
HELD_OUT_SEED = 104729
