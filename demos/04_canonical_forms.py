"""Canonical matrix-product forms: minimal bonds, weights, and gauge freedom.

The canonical form of a chain is reached by singular-value sweeps; its bond
dimensions are the Schmidt ranks across the cuts, which is what makes it
the arbiter of ancilla dimensions.  This demo canonicalizes a deliberately
wasteful representation, checks the defining residuals, and shows that two
canonicalizations of the same state agree up to the allowed bond gauge.
"""

import numpy as np

from seqdecomp import Mps, canonicalize, check_canonical, ghz_state, state_to_mps

np.set_printoptions(precision=6, suppress=True)


def contract(chain):
    """The dense state of a chain, one site at a time."""
    g = chain.tensors[0][:, :, 0]
    for t in chain.tensors[1:]:
        g = np.einsum("pa,qba->pqb", g, t).reshape(-1, t.shape[1])
    return chain.norm * g[:, 0]


def gauge_residual(a, b):
    """How far two canonical chains of equal bonds are from b = V a V†, with
    the bond unitaries V found site by site from the left as polar factors."""
    v = np.eye(1)
    worst = 0.0
    for ta, tb in zip(a.tensors, b.tensors):
        target = np.einsum("iab,bc->iac", tb, v)
        w, _, vd = np.linalg.svd(np.einsum("iac,ibc->ab", target, ta.conj()))
        v = w @ vd
        worst = max(worst, np.abs(target - np.einsum("ab,ibc->iac", v, ta)).max())
    return max(worst, abs(v[0, 0] - 1.0))


# A four-qubit GHZ state: Schmidt rank 2 across every cut, weights (1/2, 1/2).
psi = ghz_state(4)
mps, weights = state_to_mps(psi)
print("GHZ bond dimensions:", mps.bond_dims)
print("squared Schmidt weights per cut:", [w.tolist() for w in weights.lambdas])
report = check_canonical(mps, weights)
print("canonical residuals:",
      f"{report.left_normalization:.2e}",
      f"{report.weight_transport:.2e}",
      f"{report.weight_validity:.2e}")

# Disguise the same state: pad every bond to dimension 6 and twist each bond
# by a random invertible matrix.  The contraction is unchanged but the
# representation no longer shows the true ranks.
rng = np.random.default_rng(5)
padded = []
sizes = [1, 6, 6, 6, 1]
gauges = [np.eye(1, dtype=complex)]
for c in range(1, 4):
    gauges.append(np.eye(6, dtype=complex)
                  + 0.3 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))))
gauges.append(np.eye(1, dtype=complex))
for m, t in enumerate(mps.tensors):
    d, rgt, lft = t.shape
    block = np.zeros((d, sizes[m + 1], sizes[m]), dtype=complex)
    block[:, :rgt, :lft] = t
    padded.append(np.einsum("ab,ibc,cd->iad", gauges[m + 1], block,
                            np.linalg.inv(gauges[m])))
fat = Mps(tuple(padded), norm=mps.norm)
print("\ndisguised bond dimensions:", fat.bond_dims)
print("still the same state:", f"{np.linalg.norm(contract(fat) - psi):.2e}")

# Canonicalization crushes the padding back to the true ranks.
slim, slim_weights = canonicalize(fat)
print("after canonicalization:", slim.bond_dims)
print("weights recovered:", [w.tolist() for w in slim_weights.lambdas])

# The two canonical forms describe the same state, so they must be related
# by bond unitaries that commute with the weights; gauge_residual finds them.
print("\ngauge residual:", f"{gauge_residual(mps, slim):.2e}")

# Orthogonal states are never gauge related: here the bonds already differ.
other = np.zeros(16, dtype=complex)
other[1] = 1.0
other_mps, _ = state_to_mps(other)
print("GHZ vs |0001> bonds:", mps.bond_dims, "vs", other_mps.bond_dims)
