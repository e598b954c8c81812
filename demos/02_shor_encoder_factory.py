"""Sequential factory for the nine-qubit code encoder.

The encoder maps |0> to ((|000> + |111>)/sqrt(2))^(x3) and |1> to the same
with minus signs.  Both image states have Schmidt rank 2 across every cut,
so stacking the two branches needs at most a 2 + 2 = 4 dimensional ancilla,
and the canonical matrix-product form of the operator confirms that 4 (two
ancilla qubits) is exactly optimal.  The synthesized plan walks the ancilla
once along the nine chain qubits.
"""

import numpy as np

from seqdecomp import (
    build_plan,
    ghz_state,
    shor_encoder,
    simulate,
    state_to_mps,
    verify_plan,
)

encoder = shor_encoder()

# Bond dimensions of the two branch states: rank 2 everywhere.
for label, column in (("U|0>", 0), ("U|1>", 1)):
    branch, _ = state_to_mps(encoder.matrix[:, column])
    print(f"{label} bond dimensions:", branch.bond_dims)

plan = build_plan(encoder)
print("\nancilla dimension:", plan.ancilla_dim, "(two ancilla qubits)")
print("operator bond dimensions:", plan.bond_dims)
print("steps:", len(plan.steps), "unitaries of shape", plan.steps[0].shape)

verification = verify_plan(plan, encoder)
print("worst basis-input error:", f"{verification.max_error:.3e}")

# Encode |+>: the image is the balanced superposition of the two branches.
# The last bond is 1, so the ancilla is back in |0> by construction.
plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
encoded = simulate(plan, plus)
gp, gm = ghz_state(3, +1), ghz_state(3, -1)
target = (np.kron(np.kron(gp, gp), gp) + np.kron(np.kron(gm, gm), gm)) / np.sqrt(2.0)
print("\nencoding |+>: distance to expected image", f"{np.linalg.norm(encoded - target):.3e}")

# The first step loads the ancilla; the interior steps move correlations
# along; the last step of each block returns the ancilla to a smaller
# support, which is visible in the bond dimensions (4, 4, 2 repeating).
