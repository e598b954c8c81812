"""Dense complex linear algebra used by the rest of the package.

Everything operates on plain numpy arrays of ``complex128``.  Composite
qubit indices are big-endian throughout: site 1 is the most significant
bit of a basis-state index.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, NumericFailureError

#: Singular values at or below this times the largest count as numerically
#: zero: the one cutoff for numerical rank, and so for every bond dimension.
RANK_TOL = 1e-10

#: Gram residual ``||q† q - I||`` above which columns no longer count as
#: orthonormal: operator matrices, the blocks of a plan, completion inputs,
#: the canonical form's conditions and the sequentiality criterion.  Also the
#: 2-norm slack of a state that must be normalized.
ISOMETRY_TOL = 1e-10


#: How many bits a refused size may have beyond physical memory's and still
#: be written in full; a larger one is written as a power of two.
_FULL_SIZE_BITS = 64


def _require_fits(name: str, what: str, need: int) -> None:
    """Refuse work whose ``what`` needs ``need`` bytes when that exceeds
    the machine's physical memory, before allocating it: work that can
    never fit.  Free memory changes between the check and the allocation,
    so a refusal read from it would depend on other processes."""
    have = _physical_memory()
    if need > have:
        _refuse(name, what, need.bit_length() - 1, have, need)


def _require_dense_fits(name: str, m_in: int, n_out: int, copies: int = 1, spare: int = 0) -> None:
    """:func:`_require_fits` for ``copies`` dense ``m_in -> n_out`` matrices
    of ``16 * 2**(n_out + m_in)`` bytes each, and ``spare`` bytes more.  A
    matrix far beyond physical memory is refused by its exponent, without
    forming its size."""
    times = f" x {copies}" if copies > 1 else ""
    more = f" and {spare} bytes" if spare else ""
    what = f"the dense {m_in} -> {n_out} matrix{times}{more}"
    bits = n_out + m_in + 4  # one matrix takes 2**bits bytes
    have = _physical_memory()
    if bits > have.bit_length() + _FULL_SIZE_BITS:
        _refuse(name, what, bits, have)
    _require_fits(name, what, copies * 2**bits + spare)


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _refuse(name: str, what: str, bits: int, have: int, need: int | None = None) -> None:
    """Raise the guard's error for ``what``, which needs ``need`` bytes, at
    least ``2**bits``, more than the ``have`` bytes of physical memory."""
    full = need is not None and bits <= have.bit_length() + _FULL_SIZE_BITS
    size = need if full else f"at least 2**{bits}"
    raise ContractViolationError(
        f"{name}: {what} needs {size} bytes, more than the {have} bytes of physical memory"
    )


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


#: Relative band within which a row's entries tie for its largest modulus, so
#: that rounding cannot choose between ``|u00| == |u11|`` of a 2x2 unitary.
_LEAD_TIE = 1e-10


def svd(m) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors, with one phase per row.

    Returns ``(s, v_dagger)`` for the singular values above
    :data:`RANK_TOL` ``* s[0]`` only (none for a zero matrix).  Each row of
    ``v_dagger`` is multiplied by the conjugate phase of its lead entry,
    the first whose modulus is within a relative :data:`_LEAD_TIE` of the
    row's largest, so that the lead entry is real positive.  The rows then
    depend on ``m`` only through ``m† m``: any factor with the same Gram
    matrix, such as :func:`r_factor`, gives the same result up to rounding,
    as long as the kept singular values are distinct.
    """
    a = as_matrix(m)
    try:
        _, s, vd = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"SVD failed to converge for shape {a.shape}") from exc
    rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
    # rephased in place; a truncated v† is copied so that it frees the dropped rows
    vd = vd[:rank].copy() if rank < len(vd) else vd
    modulus = np.abs(vd)
    tied = modulus >= (1.0 - _LEAD_TIE) * modulus.max(axis=1, keepdims=True)
    lead = vd[np.arange(rank), tied.argmax(axis=1)]
    # hypot, as the scalar abs() computes it; np.abs may differ in the last bit
    vd *= (np.conj(lead) / np.hypot(lead.real, lead.imag))[:, None]
    return s[:rank], vd


#: Rows per block in the first QR pass of :func:`r_factor`.
_QR_ROWS = 2**10


def r_factor(a: np.ndarray) -> np.ndarray:
    """The Householder R factor of the matrix ``a``, by a tall-skinny QR.

    The full row blocks of :data:`_QR_ROWS` rows are reduced by one stacked
    QR, and one more QR of their R's and the leftover rows gives R, square
    when ``a`` has at least as many rows as columns.  The peel reduces a
    block too tall to copy at once chunk by chunk, and then once more over
    the chunks' R's.

    R has ``a``'s Gram matrix ``a† a`` and :func:`svd` phases each row of
    ``v†`` by that row alone, so its singular values and right singular
    vectors are those of ``a``, bar the unitary gauge of a degenerate
    singular value.
    """
    rows, cols = a.shape
    full = rows - rows % _QR_ROWS
    if not full:
        return np.linalg.qr(a, mode="r")
    r = np.linalg.qr(a[:full].reshape(-1, _QR_ROWS, cols), mode="r").reshape(-1, cols)
    return np.linalg.qr(np.concatenate([r, a[full:]]) if full < rows else r, mode="r")


def isometry_defect(q: np.ndarray) -> float | np.ndarray:
    """``||q† q - I||_2``, exactly, from the spectrum of the smaller Gram matrix.

    ``q† q`` and ``q q†`` share their nonzero eigenvalues; a wide ``q`` adds
    zero eigenvalues to ``q† q``, each a defect of exactly 1.  A stack of
    matrices of one shape gets one defect each, from one product and one ``eigvalsh``.
    """
    rows, cols = q.shape[-2:]
    g = dagger(q) @ q if rows >= cols else q @ dagger(q)
    g.reshape(*g.shape[:-2], -1)[..., :: g.shape[-1] + 1] -= 1  # g - I bit for bit
    defect = np.abs(np.linalg.eigvalsh(g)).max(axis=-1)
    return defect if rows >= cols else np.maximum(defect, 1.0)


def isometry_residual(q: np.ndarray) -> float:
    """Gram residual ``||q† q - I||`` for a pass/fail check at :data:`ISOMETRY_TOL`.

    The Frobenius norm bounds the spectral norm from above, so it is returned
    when already below the tolerance: no ``>`` or ``>=`` verdict against it
    changes.  Otherwise the exact spectral norm is returned, as
    :func:`isometry_defect` computes it for the sequentiality criterion.
    """
    g = q.conj().T @ q
    g.flat[:: len(g) + 1] -= 1  # g - I bit for bit, without forming I
    x = g.ravel()  # the Frobenius norm as np.linalg.norm sums it, without its checks
    frobenius = math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    if frobenius < ISOMETRY_TOL:
        return frobenius
    return isometry_defect(q)


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
    gram_residual = isometry_residual(q)
    if gram_residual > ISOMETRY_TOL:
        raise ContractViolationError(
            f"columns are not orthonormal: Gram residual {gram_residual:.3e}"
        )
    full, _ = np.linalg.qr(q, mode="complete")
    return np.concatenate([q, full[:, k:]], axis=1)


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
