"""X-state route: the exact a-reduction at the three coordinate axes.

For correlation data in the canonical zero pattern (middle Bloch components
and the middle row/column of T vanish) the xstate route evaluates the exact
maximum over a at b = e1, e2 and e3 (f is even in b, so -b adds nothing).
On the X pattern (every x-state family member) and on the zero-y pattern
the best axis is the global maximum, so the whole optimization collapses to
three closed-form evaluations. On general canonical data it is not, so the
route refuses such data with NotCanonicalFormError (the CLI exits 2).
"""

import numpy as np

from ggqd import (
    CorrelationData,
    NotCanonicalFormError,
    StateFamilySpec,
    generate_state,
    ggqd,
    maximize_objective,
    objective_f,
    pauli_decompose,
    xstate_candidates,
)

np.set_printoptions(precision=4, suppress=True)


def show(corr):
    pairs = xstate_candidates(corr)
    for d in pairs:
        print(f"  a = {d.a}  b = {d.b}  f = {objective_f(corr, d):.6f}")
    best = max(objective_f(corr, d) for d in pairs)
    full = maximize_objective(corr)[0]
    print(f"axis max = {best:.12f}, full solver = {full:.12f}, diff = {abs(best - full):.1e}\n")


print("=== Bell mixture, C3 = 0.5 ===")
rho = generate_state(StateFamilySpec("bell_mixture", {"c3": 0.5}), allow_nonphysical=True)
show(pauli_decompose(rho))

print("=== x-state with rho03 = rho12 = 0.2: T = diag(0.8, 0, 0), optimum at b = e1 ===")
rho = generate_state(StateFamilySpec("x_state", {"rho03": 0.2, "rho12": 0.2}))
corr = pauli_decompose(rho)
print("T =\n", corr.T)
show(corr)
print(f"GGQD via xstate = {ggqd(rho, method='xstate').ggqd:.3g} (a classical state)\n")

print("=== zero-y X-pattern with coupled x and T ===")
t = np.zeros((3, 3))
t[0, 2], t[1, 1], t[2, 2] = 0.55, -0.65, 0.4
show(CorrelationData(x=np.array([0.3, 0.0, -0.5]), y=np.zeros(3), T=t))

print("=== general canonical data: the optimum can leave the axes ===")
t = np.zeros((3, 3))
t[0, 0], t[0, 2], t[2, 0], t[1, 1], t[2, 2] = 0.5, 0.4, -0.3, 0.2, 0.6
corr = CorrelationData(x=np.array([0.3, 0.0, 0.2]), y=np.array([-0.4, 0.0, 0.1]), T=t)
try:
    xstate_candidates(corr)
except NotCanonicalFormError as exc:
    print(f"refused: {exc}")
print(f"the full solver gives f_max = {maximize_objective(corr)[0]:.12f}")
