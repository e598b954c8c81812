"""Sequential implementation of optimal symmetric qubit cloning.

The optimal 1 -> n cloning isometry spreads one qubit over 2n - 1 qubits:
n approximate clones followed by n - 1 anticlones.  Its two branch states
have Schmidt rank n, so the ancilla never needs more than 2n dimensions;
the canonical form shows the bound is tight.  Every clone ends up in the
same reduced state with the optimal fidelity (2n + 1) / (3n).
"""

import numpy as np

from seqdecomp import (
    build_plan,
    gisin_massar_cloner,
    reduced_density_matrix,
    simulate,
    state_to_mps,
    verify_plan,
)

np.set_printoptions(precision=6, suppress=True)

for n in (2, 3):
    cloner = gisin_massar_cloner(n)
    n_out = 2 * n - 1
    print(f"--- {n} clones: 1 -> {n_out} qubits ---")

    d0 = state_to_mps(cloner.matrix[:, 0])[0].max_bond_dim
    d1 = state_to_mps(cloner.matrix[:, 1])[0].max_bond_dim
    print("branch bond dimensions:", d0, "and", d1, f"(bound {d0 + d1})")

    plan = build_plan(cloner)
    print("ancilla dimension:", plan.ancilla_dim, f"<= 2n = {2 * n}")
    print("verification error:", f"{verify_plan(plan, cloner).max_error:.3e}")

    # Clone |0> and inspect each clone's reduced state.
    output = simulate(plan, np.array([1.0, 0.0]))
    for site in range(n):
        rho = reduced_density_matrix(output, [2] * n_out, site)
        fidelity = rho[0, 0].real
        print(f"clone {site + 1}: fidelity <0|rho|0> = {fidelity:.6f}"
              f" (optimum {(2 * n + 1) / (3 * n):.6f})")
    print()
