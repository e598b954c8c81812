"""Matrix-product representations of states and of few-to-many qubit operators.

Storage convention
------------------
A chain of ``N`` sites is a tuple of site tensors, where the tensor at site
``m`` has shape ``(d_m, right_dim, left_dim)``: ``tensor[i]`` is the matrix
mapping the bond space shared with sites ``< m`` into the bond space shared
with sites ``> m`` when the site emits physical value ``i``.  Both boundary
bond spaces are one-dimensional, and the amplitude of ``|i_1 .. i_N>`` is
the scalar

    norm * tensor_N[i_N] @ ... @ tensor_2[i_2] @ tensor_1[i_1].

Composite indices are big-endian: site 1 is the most significant.

Canonical form
--------------
:func:`state_to_mps`, :func:`operator_to_mps` and :func:`canonicalize`
produce the gauge in which, at every site,

* left-normalization: ``sum_i tensor[i]† tensor[i]`` is the identity on the
  left bond, and
* weight transport: ``sum_i tensor[i] @ diag(w_left) @ tensor[i]†`` equals
  ``diag(w_right)``, where ``w`` are the squared Schmidt coefficients across
  the neighboring cuts (the boundary weights are the scalar 1),

with every interior weight vector strictly positive and summing to one.
Bond dimensions in this gauge equal the Schmidt ranks across the
corresponding cuts and are therefore minimal.

A dense vector reaches this gauge by one right-to-left SVD peel: across
each cut, the SVD of the dense remainder gives the Schmidt coefficients
and, as its right singular vectors, the canonical tensor of the site just
peeled.  Site 1 is the normalized rest; its norm becomes ``norm``.  A chain
is left-orthonormalized first and then peeled the same way.  Singular
values below ``rank_tol`` times the largest are dropped, once per cut.

Operators are handled by fusing the input leg with the output leg at each
of the first ``m_in`` sites (fused index = 2 * output + input) and
canonicalizing the vectorization; ``norm`` carries the operator scale,
which is ``sqrt(2 ** m_in)`` for an isometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolationError
from .linalg import DEFAULT_RANK_TOL, dagger, regroup, svd
from .oplib import Isometry

#: 2-norm slack allowed on states that are required to be normalized.
STATE_NORM_TOL = 1e-10


def _validate_chain(tensors) -> tuple[np.ndarray, ...]:
    if not tensors:
        raise ContractViolationError("chain must contain at least one site")
    arrays = []
    for m, t in enumerate(tensors):
        a = np.array(t, dtype=np.complex128)
        if a.ndim != 3 or a.shape[0] < 1:
            raise ContractViolationError(
                f"site {m + 1}: tensor must have shape (phys, right, left), "
                f"got {a.shape}"
            )
        if not np.isfinite(a).all():
            raise ContractViolationError(f"site {m + 1}: non-finite entries")
        a.setflags(write=False)
        arrays.append(a)
    if arrays[0].shape[2] != 1:
        raise ContractViolationError("left boundary bond dimension must be 1")
    if arrays[-1].shape[1] != 1:
        raise ContractViolationError("right boundary bond dimension must be 1")
    for m in range(1, len(arrays)):
        if arrays[m].shape[2] != arrays[m - 1].shape[1]:
            raise ContractViolationError(
                f"bond mismatch between sites {m} and {m + 1}: "
                f"{arrays[m - 1].shape[1]} vs {arrays[m].shape[2]}"
            )
    return tuple(arrays)


@dataclass(frozen=True)
class Mps:
    """Matrix-product state or operator; see the module docstring for the layout.

    A state chain has ``m_in == 0`` and any physical dimensions.  An
    ``m_in -> n_sites`` qubit operator has ``m_in >= 1``: its first ``m_in``
    sites carry fused physical legs of dimension 4 (fused index =
    2 * output + input) and the remaining sites output legs of dimension 2.
    """

    tensors: tuple[np.ndarray, ...]
    norm: float = 1.0
    m_in: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tensors", _validate_chain(self.tensors))
        if not (np.isfinite(self.norm) and self.norm > 0):
            raise ContractViolationError(f"norm must be finite positive, got {self.norm}")
        if not 0 <= self.m_in <= len(self.tensors):
            raise ContractViolationError(
                f"m_in={self.m_in} out of range for {len(self.tensors)} sites"
            )
        if self.m_in:
            for m, t in enumerate(self.tensors):
                want = 4 if m < self.m_in else 2
                if t.shape[0] != want:
                    raise ContractViolationError(
                        f"site {m + 1}: physical dimension {t.shape[0]}, expected {want}"
                    )

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def physical_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[0] for t in self.tensors)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """The N+1 bond dimensions, boundaries included."""
        return tuple(t.shape[2] for t in self.tensors) + (self.tensors[-1].shape[1],)

    @property
    def max_bond_dim(self) -> int:
        return max(self.bond_dims)


@dataclass(frozen=True)
class CanonicalWeights:
    """Squared Schmidt coefficients for every interior cut of a chain.

    ``lambdas[m]`` belongs to the cut between sites ``m + 1`` and ``m + 2``
    (0-based tuple over the ``N - 1`` interior cuts); each vector is sorted
    descending, strictly positive, and sums to one.
    """

    lambdas: tuple[np.ndarray, ...]

    def __post_init__(self):
        arrays = []
        for c, lam in enumerate(self.lambdas):
            a = np.array(lam, dtype=np.float64)
            if a.ndim != 1 or a.size == 0 or not np.isfinite(a).all():
                raise ContractViolationError(f"cut {c + 1}: malformed weight vector")
            a.setflags(write=False)
            arrays.append(a)
        object.__setattr__(self, "lambdas", tuple(arrays))


@dataclass(frozen=True)
class CanonicalReport:
    """Maximum residuals of the three canonical-form conditions."""

    left_normalization: float
    weight_transport: float
    weight_validity: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            max(self.left_normalization, self.weight_transport, self.weight_validity)
            < self.tol
        )


@dataclass(frozen=True)
class GaugeVerdict:
    """Outcome of testing whether two canonical forms are gauge related."""

    related: bool
    reason: str
    max_residual: float

    def __bool__(self) -> bool:
        return self.related


# ---------------------------------------------------------------------------
# contraction


def contract_state(mps: Mps) -> np.ndarray:
    """Dense vector represented by the chain (fused legs stay fused)."""
    g = mps.tensors[0][:, :, 0]  # (d_1, D_2)
    for t in mps.tensors[1:]:
        g = np.einsum("pa,qba->pqb", g, t)
        g = g.reshape(-1, t.shape[1])
    return mps.norm * g[:, 0]


def contract_operator(op: Mps) -> np.ndarray:
    """Dense ``(2**n_sites, 2**m_in)`` matrix represented by an operator chain."""
    n, m = op.n_sites, op.m_in
    vec = contract_state(op)
    # fused legs (i_1 j_1 .. i_m j_m i_{m+1} .. i_n) -> (i_1 .. i_n), (j_1 .. j_m)
    perm = [2 * k for k in range(m)] + list(range(2 * m, n + m))
    perm += [2 * k + 1 for k in range(m)]
    return regroup(vec, [2] * (n + m), [2**n, 2**m], perm)


# ---------------------------------------------------------------------------
# canonicalization sweeps


def _left_sweep_tensors(tensors: Sequence[np.ndarray], rank_tol: float) -> list[np.ndarray]:
    """Left-orthonormal factors of a chain in (left, phys, right) layout;
    the last one keeps the chain's scale."""
    *head, last = tensors
    factors = []
    carry = np.eye(1, dtype=np.complex128)
    for t in head:
        block = np.tensordot(carry, t, axes=([1], [2]))  # (left, phys, right)
        lft, d, rgt = block.shape
        u, s, vd = svd(block.reshape(lft * d, rgt), rank_tol).truncated()
        if s.size == 0:
            raise ContractViolationError("chain contracts to the zero vector")
        factors.append(u.reshape(lft, d, s.size))
        carry = s[:, None] * vd
    return factors + [np.tensordot(carry, last, axes=([1], [2]))]


def _right_sweep(n: int, block, carry: np.ndarray, rank_tol: float):
    """The right-to-left peel of the module docstring over ``n`` sites.

    ``block(m, carry)`` forms the (left, phys, right) block of site ``m``
    (0-based) from the carry of site ``m + 1``, the first from ``carry``.
    Returns the site tensors, the canonical weights and the norm scale.
    """
    out = [None] * n
    schmidt = [None] * (n - 1)
    for m in reversed(range(1, n)):
        b = block(m, carry)
        lft, d, rgt = b.shape
        u, s, vd = svd(b.reshape(lft, d * rgt), rank_tol).truncated()
        if s.size == 0:
            raise ContractViolationError("chain contracts to the zero vector")
        out[m] = vd.reshape(s.size, d, rgt)
        schmidt[m - 1] = s
        carry = u * s
    row = block(0, carry)
    scale = float(np.linalg.norm(row))
    if scale == 0.0:
        raise ContractViolationError("chain contracts to the zero vector")
    out[0] = row / scale
    tensors = tuple(np.transpose(r, (1, 2, 0)) for r in out)
    return tensors, CanonicalWeights(tuple((s / scale) ** 2 for s in schmidt)), scale


def _dense_sweep(v: np.ndarray, dims: Sequence[int], rank_tol: float):
    """:func:`_right_sweep` of a dense vector; the carry is the remainder."""

    def peel(m, rest):
        return rest.reshape(-1, dims[m], rest.shape[1])

    return _right_sweep(len(dims), peel, v.reshape(-1, 1), rank_tol)


def state_to_mps(
    psi,
    dims: Sequence[int] | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> tuple[Mps, CanonicalWeights]:
    """Canonical matrix-product form of a normalized dense state vector.

    ``dims`` lists the per-site physical dimensions and defaults to qubits.
    The returned bond dimensions are the Schmidt ranks across every cut.
    One SVD per interior cut computes them, in one right-to-left peel.
    """
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if not np.isfinite(v).all():
        raise ContractViolationError("state contains non-finite entries")
    if dims is None:
        n = int(v.size).bit_length() - 1
        if 2**n != v.size or n < 1:
            raise ContractViolationError(
                f"state length {v.size} is not a power of two; pass dims explicitly"
            )
        dims = [2] * n
    dims = [int(d) for d in dims]
    if not dims or any(d < 1 for d in dims):
        raise ContractViolationError(f"invalid site dimensions {tuple(dims)}")
    if np.prod(dims) != v.size:
        raise ContractViolationError(
            f"state length {v.size} does not match dims {tuple(dims)}"
        )
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > STATE_NORM_TOL:
        raise ContractViolationError(f"state is not normalized: |psi| = {nrm!r}")
    tensors, weights, scale = _dense_sweep(v, dims, rank_tol)
    return Mps(tensors, norm=scale), weights


def operator_to_mps(
    u: Isometry, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[Mps, CanonicalWeights]:
    """Canonical matrix-product form of an isometry.

    The input leg of site ``k <= m_in`` is fused with its output leg
    (fused index = 2 * output + input); the remaining sites carry output
    legs only.  The contraction of the result reproduces the operator
    entrywise.  Like :func:`state_to_mps`, it makes one SVD per interior cut.
    """
    n, m = u.n_out, u.m_in
    # matrix legs (i_1 .. i_n, j_1 .. j_m) -> (i_1 j_1, .., i_m j_m, i_{m+1} ..)
    perm = []
    for k in range(m):
        perm += [k, n + k]
    perm += list(range(m, n))
    vec = regroup(u.matrix, [2] * (n + m), [2 ** (n + m)], perm)
    tensors, weights, scale = _dense_sweep(vec, [4] * m + [2] * (n - m), rank_tol)
    return Mps(tensors, norm=scale, m_in=m), weights


def canonicalize(
    mps: Mps, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[Mps, CanonicalWeights]:
    """Bring an arbitrary shape-consistent chain into canonical form.

    The contraction is preserved (up to the stated rank tolerance); the
    output bond dimensions are the Schmidt ranks after discarding singular
    values below ``rank_tol`` relative to the largest at each cut.  A chain
    that contracts to the zero vector is rejected.  A chain takes two
    sweeps, ``2 * (N - 1)`` SVDs: left-orthonormalization, then the peel.
    """
    factors = _left_sweep_tensors(mps.tensors, rank_tol)
    tensors, weights, scale = _right_sweep(
        len(factors),
        lambda m, carry: np.tensordot(factors[m], carry, axes=([2], [0])),
        np.eye(1, dtype=np.complex128),
        rank_tol,
    )
    return Mps(tensors, norm=mps.norm * scale, m_in=mps.m_in), weights


# ---------------------------------------------------------------------------
# verification


def check_canonical(
    mps: Mps,
    weights: CanonicalWeights,
    tol: float = 1e-10,
) -> CanonicalReport:
    """Residuals of the canonical-form conditions for a chain and its weights.

    Reports the worst spectral-norm deviation of left-normalization, of the
    weight-transport recursion, and of the weight vectors' positivity and
    unit trace.  Passes when all three stay below ``tol``.
    """
    n = mps.n_sites
    if len(weights.lambdas) != n - 1:
        raise ContractViolationError(
            f"{len(weights.lambdas)} weight vectors for {n - 1} interior cuts"
        )
    chain = [np.ones(1)] + list(weights.lambdas) + [np.ones(1)]
    for c in range(1, n):
        if chain[c].size != mps.bond_dims[c]:
            raise ContractViolationError(
                f"cut {c}: weight length {chain[c].size} != bond {mps.bond_dims[c]}"
            )
    res_norm = 0.0
    res_transport = 0.0
    res_weights = 0.0
    for m, t in enumerate(mps.tensors):
        d, rgt, lft = t.shape
        gram = np.zeros((lft, lft), dtype=np.complex128)
        push = np.zeros((rgt, rgt), dtype=np.complex128)
        for i in range(d):
            gram += dagger(t[i]) @ t[i]
            push += t[i] @ (chain[m][:, None] * dagger(t[i]))
        res_norm = max(res_norm, float(np.linalg.norm(gram - np.eye(lft), 2)))
        res_transport = max(
            res_transport, float(np.linalg.norm(push - np.diag(chain[m + 1]), 2))
        )
    for lam in weights.lambdas:
        res_weights = max(res_weights, abs(float(np.sum(lam)) - 1.0))
        res_weights = max(res_weights, max(0.0, -float(np.min(lam))))
    return CanonicalReport(res_norm, res_transport, res_weights, tol)


def gauge_check(
    a: Mps,
    weights_a: CanonicalWeights,
    b: Mps,
    weights_b: CanonicalWeights,
    tol: float = 1e-8,
) -> GaugeVerdict:
    """Decide whether two canonical forms describe the same object.

    Two canonical chains are equivalent exactly when there are unitaries
    ``V_m`` on the bonds, trivial at both boundaries and commuting with the
    weights, with ``b_tensor[i] = V_right @ a_tensor[i] @ V_left†`` at every
    site.  The ``V_m`` are recovered site by site from the left as the
    least-squares unitary (polar factor) and all residuals are tested
    against ``tol``.
    """
    if a.physical_dims != b.physical_dims:
        return GaugeVerdict(False, "physical dimensions differ", float("inf"))
    if a.m_in != b.m_in:
        return GaugeVerdict(False, "input site counts differ", float("inf"))
    if a.bond_dims != b.bond_dims:
        return GaugeVerdict(
            False,
            f"bond dimensions differ: {a.bond_dims} vs {b.bond_dims}",
            float("inf"),
        )
    if abs(a.norm - b.norm) > tol * max(a.norm, b.norm):
        return GaugeVerdict(False, "overall scales differ", float("inf"))
    worst = 0.0
    for la, lb in zip(weights_a.lambdas, weights_b.lambdas):
        worst = max(worst, float(np.max(np.abs(np.sort(la)[::-1] - np.sort(lb)[::-1]))))
    if worst > tol:
        return GaugeVerdict(False, "weight spectra differ", worst)

    v_left = np.eye(1, dtype=np.complex128)
    lam_chain = list(weights_a.lambdas) + [np.ones(1)]
    for m in range(a.n_sites):
        ta, tb = a.tensors[m], b.tensors[m]
        target = np.einsum("iab,bc->iac", tb, v_left)
        cross = np.einsum("iac,ibc->ab", target, np.conj(ta))
        res = svd(cross)
        v_m = res.u @ res.v_dagger  # polar factor: closest unitary
        lam = lam_chain[m]
        worst = max(
            worst, float(np.linalg.norm(v_m * lam[None, :] - lam[:, None] * v_m, 2))
        )
        relation = np.einsum("ab,ibc->iac", v_m, ta)
        worst = max(worst, float(np.max(np.abs(target - relation))))
        v_left = v_m
    worst = max(worst, float(abs(v_left[0, 0] - 1.0)))
    if worst > tol:
        return GaugeVerdict(False, "gauge relation residual too large", worst)
    return GaugeVerdict(True, "", worst)
