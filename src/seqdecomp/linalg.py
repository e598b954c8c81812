"""Dense complex linear algebra used by the rest of the package.

Everything operates on plain numpy arrays of ``complex128``.  Composite
qubit indices are big-endian throughout: site 1 is the most significant
bit of a basis-state index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, NumericFailureError

#: Relative threshold below which singular values count as numerically zero.
DEFAULT_RANK_TOL = 1e-10

#: Gram residual ``||q† q - I||`` above which columns no longer count as
#: orthonormal: operator matrices, loaded step unitaries, completion inputs.
ISOMETRY_TOL = 1e-10


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a nonempty, finite, 2-D complex array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.size == 0:
        raise ContractViolationError(
            f"{name} must be a nonempty 2-D array, got shape {np.shape(m)}"
        )
    if not np.isfinite(a).all():
        raise ContractViolationError(f"{name} contains non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.swapaxes(m, -1, -2))


@dataclass(frozen=True)
class SvdResult:
    """Thin factorization ``m = u @ diag(s) @ v_dagger`` with a fixed phase gauge."""

    u: np.ndarray
    s: np.ndarray
    v_dagger: np.ndarray
    numerical_rank: int

    def __post_init__(self):
        for a in (self.u, self.s, self.v_dagger):
            a.setflags(write=False)

    def truncated(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The factors restricted to the numerically nonzero singular values."""
        r = self.numerical_rank
        return self.u[:, :r], self.s[:r], self.v_dagger[:r, :]


def svd(m, rank_tol: float = DEFAULT_RANK_TOL) -> SvdResult:
    """Thin SVD with deterministic phases and a relative numerical rank.

    Each left singular vector is rephased so that its first entry of
    largest modulus is real and positive; the matching right vector absorbs
    the conjugate phase, leaving the product unchanged.  This removes the
    phase ambiguity of the factorization so that repeated runs produce
    identical factors.  ``numerical_rank`` counts singular values above
    ``rank_tol * s[0]``.
    """
    a = as_matrix(m)
    if rank_tol < 0:
        raise ContractViolationError("rank_tol must be nonnegative")
    try:
        u, s, vd = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"SVD failed to converge for shape {a.shape}") from exc
    lead = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])]
    # hypot, as the scalar abs() computes it; np.abs may differ in the last bit
    modulus = np.hypot(lead.real, lead.imag)
    if np.count_nonzero(modulus) == modulus.size:
        phase = lead / modulus
    else:  # a zero column keeps phase 1
        phase = np.divide(lead, modulus, out=np.ones_like(lead), where=modulus > 0.0)
    u /= phase
    vd *= phase[:, None]
    rank = int(np.count_nonzero(s > rank_tol * s[0])) if s.size and s[0] > 0 else 0
    return SvdResult(u, s, vd, rank)


#: Rows per block in the first QR pass of :func:`r_factor`.
_QR_ROWS = 2**10

#: Fewest rows for which :func:`r_factor` factors a block; below it the QR
#: costs more than it saves (``timeit``: 128x2 +12 us, 256x4 even, 256x16
#: 1.8x faster than the SVD of the block itself).
_QR_GATE = 2**8


def r_factor(a: np.ndarray) -> np.ndarray:
    """A matrix with the singular values and right singular vectors of ``a``.

    A block with at least :data:`_QR_GATE` rows and at least twice as many
    rows as columns is reduced to its square Householder R factor: one
    stacked QR over its row blocks of :data:`_QR_ROWS` rows, then one more
    over their R's and the leftover rows, so that the block is read once
    (tall-skinny QR).  Any other block is returned unchanged.
    """
    rows, cols = a.shape
    # a QR pays off only on a tall block: 1024x512 gains, 1024x1024 loses
    if rows < max(_QR_GATE, 2 * cols):
        return a
    full = rows - rows % _QR_ROWS
    blocks = np.linalg.qr(a[:full].reshape(-1, _QR_ROWS, cols), mode="r")
    return np.linalg.qr(np.concatenate([blocks.reshape(-1, cols), a[full:]]), mode="r")


def isometry_residual(q: np.ndarray, tol: float) -> float:
    """Gram residual ``||q† q - I||`` for a pass/fail check at ``tol``.

    The Frobenius norm bounds the spectral norm from above, so it is returned
    when already below ``tol``: no ``>`` or ``>=`` verdict against ``tol``
    changes.  Otherwise the exact spectral norm is returned.
    """
    g = dagger(q) @ q
    g -= np.eye(g.shape[0])
    frobenius = float(np.linalg.norm(g))
    if frobenius < tol:
        return frobenius
    return float(np.linalg.norm(g, 2))


def complete_to_unitary(cols) -> np.ndarray:
    """Extend orthonormal columns to a full unitary matrix, deterministically.

    The first ``k`` columns of the result are the input columns exactly as
    given.  The remaining ``d - k`` are the trailing columns of the complete
    Householder QR factor of the input, which span its orthogonal
    complement.  Columns whose Gram residual exceeds :data:`ISOMETRY_TOL`
    are refused.
    """
    q = as_matrix(cols, "cols")
    d, k = q.shape
    if k > d:
        raise ContractViolationError(f"more columns ({k}) than rows ({d})")
    gram_residual = isometry_residual(q, ISOMETRY_TOL)
    if gram_residual > ISOMETRY_TOL:
        raise ContractViolationError(
            f"columns are not orthonormal: Gram residual {gram_residual:.3e}"
        )
    full, _ = np.linalg.qr(q, mode="complete")
    return np.concatenate([q, full[:, k:]], axis=1)


def regroup(
    m,
    in_shape: Sequence[int],
    out_shape: Sequence[int],
    permutation: Sequence[int],
) -> np.ndarray:
    """Re-index tensor data: split into legs, permute them, and regroup.

    ``m`` is read row-major as a tensor with leg dimensions ``in_shape``,
    its legs are transposed by ``permutation`` (entry ``i`` of the output
    order names an input leg), and the result is read out row-major with
    shape ``out_shape``.  Pure index bookkeeping: applying the inverse
    permutation recovers the input bit for bit.
    """
    a = np.asarray(m, dtype=np.complex128)
    ins = tuple(int(x) for x in in_shape)
    outs = tuple(int(x) for x in out_shape)
    perm = tuple(int(x) for x in permutation)
    if math.prod(ins) != a.size:
        raise ContractViolationError(
            f"in_shape {ins} does not match element count {a.size}"
        )
    if sorted(perm) != list(range(len(ins))):
        raise ContractViolationError(
            f"permutation {perm} is not a bijection on {len(ins)} legs"
        )
    if math.prod(outs) != a.size:
        raise ContractViolationError(
            f"out_shape {outs} does not match element count {a.size}"
        )
    return a.reshape(ins).transpose(perm).reshape(outs)


def reduced_density_matrix(psi, dims: Sequence[int], keep: int) -> np.ndarray:
    """Density matrix of subsystem ``keep`` (0-based) of a pure state."""
    dims = tuple(int(d) for d in dims)
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if v.size != math.prod(dims):
        raise ContractViolationError(
            f"state length {v.size} does not match dims {dims}"
        )
    if not 0 <= keep < len(dims):
        raise ContractViolationError(f"subsystem index {keep} out of range")
    t = np.moveaxis(v.reshape(dims), keep, 0).reshape(dims[keep], -1)
    return t @ dagger(t)
