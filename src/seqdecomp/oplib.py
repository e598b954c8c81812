"""Operator library: named isometries and seeded random test instances.

Every constructor returns a validated :class:`Isometry`.  Matrix rows are
indexed by the output basis state and columns by the input basis state,
both big-endian (site 1 is the most significant qubit).
"""

from __future__ import annotations

import functools
import math
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolationError, Frozen
from .linalg import ISOMETRY_TOL, _require_dense_fits, as_matrix, dagger, isometry_residual
from .mps import Mps

_MAX_QUBITS = 10


def _require_isometry(residual: float) -> None:
    """Refuse a Gram residual above :data:`ISOMETRY_TOL`."""
    if residual > ISOMETRY_TOL:
        raise ContractViolationError(f"matrix is not an isometry: residual {residual:.3e}")


class Isometry(Frozen):
    """An inner-product preserving map from ``m_in`` qubits to ``n_out`` qubits.

    ``matrix`` has shape ``(2**n_out, 2**m_in)`` and satisfies
    ``matrix† @ matrix = identity`` within :data:`ISOMETRY_TOL`; for
    ``m_in == n_out`` it is unitary.  It is stored as a read-only
    ``complex128`` copy.  Constructing an ``Isometry`` checks the matrix
    densely, through its Gram matrix; so do operator files and the
    ``cnot``, ``ghz``, ``shor``, ``cloner`` and ``random`` builtins.

    :func:`product_unitary` instead holds its operator as ``chain``, a
    bond-1 :class:`~seqdecomp.mps.Mps`, and decides the same residual from
    its 2x2 factors; its ``matrix`` is formed the first time it is read.
    Every other operator has no ``chain``.  Like every type that holds
    arrays, it compares and hashes by identity.
    """

    m_in: int
    n_out: int
    chain: Mps | None = None

    def __init__(self, m_in: int, n_out: int, matrix):
        if m_in < 1 or n_out < m_in:
            raise ContractViolationError(f"need 1 <= m_in <= n_out, got {m_in} -> {n_out}")
        a = as_matrix(matrix, "isometry matrix")
        expected = (2**n_out, 2**m_in)
        if a.shape != expected:
            raise ContractViolationError(
                f"matrix shape {a.shape} does not match {expected} for "
                f"{m_in} -> {n_out} qubits"
            )
        _require_isometry(isometry_residual(a))
        a = a.copy()
        a.setflags(write=False)
        self.__dict__.update(m_in=m_in, n_out=n_out, matrix=a)

    @classmethod
    def _from_chain(cls, chain: Mps, residual: float,
                    dense: Callable[[], np.ndarray]) -> Isometry:
        """An isometry held as the operator ``chain``, whose Gram residual
        is already known; ``dense()`` forms its matrix, a fresh
        ``complex128`` array, when ``matrix`` is first read."""
        _require_isometry(residual)
        iso = object.__new__(cls)
        iso.__dict__.update(m_in=chain.m_in, n_out=chain.n_sites, chain=chain, _dense=dense)
        return iso

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        matrix = self._dense()
        matrix.setflags(write=False)
        return matrix

    @property
    def is_unitary(self) -> bool:
        return self.m_in == self.n_out


def cnot() -> Isometry:
    """Controlled-NOT on two qubits; site 1 controls, site 2 is the target."""
    m = np.zeros((4, 4), dtype=np.complex128)
    for control in (0, 1):
        for target in (0, 1):
            m[2 * control + (target ^ control), 2 * control + target] = 1.0
    return Isometry(2, 2, m)


#: Dense matrices that building a ``ghz`` or ``cloner`` operator holds, which
#: their memory guard counts: ``ghz``'s two columns and the matrix stacked
#: from them, or a cloner's matrix and the half-matrix term it adds in place;
#: then the matrix and :class:`Isometry`'s conjugate or validated copy of it.
_BUILD_COPIES = 2

#: Bytes of fixed costs beside :data:`_BUILD_COPIES` matrices that the guard
#: counts too.  ``tracemalloc`` measured up to 1.7 kB beyond two matrices on
#: ``ghz:<n>`` from ``ghz:10`` and ``cloner:<n>`` from ``cloner:8``.  Smaller
#: operators exceed it by a few kB, and a cloner under 1 MiB by the up to
#: 256 KiB of buffers of numpy's broadcast product (0.13 MB on ``cloner:7``).
_BUILD_SPARE = 2**11


def ghz_state(n: int, sign: int = +1) -> np.ndarray:
    """The n-qubit state (|0..0> + sign |1..1>) / sqrt(2)."""
    if n < 1:
        raise ContractViolationError("need at least one qubit")
    v = np.zeros(2**n, dtype=np.complex128)
    v[0] = 1.0 / math.sqrt(2.0)
    v[-1] = sign / math.sqrt(2.0)
    return v


def ghz_isometry(n: int) -> Isometry:
    """1 -> n map sending |0>, |1> to the +/- n-qubit GHZ states."""
    if n < 1:
        raise ContractViolationError("need at least one output qubit")
    _require_dense_fits(f"ghz:{n}", 1, n, _BUILD_COPIES, _BUILD_SPARE)
    m = np.stack([ghz_state(n, +1), ghz_state(n, -1)], axis=1)
    return Isometry(1, n, m)


def shor_encoder() -> Isometry:
    """The nine-qubit bit/phase-flip code encoder.

    |0> maps to the threefold tensor power of (|000> + |111>) / sqrt(2) and
    |1> to the threefold tensor power of (|000> - |111>) / sqrt(2).
    """
    plus = ghz_state(3, +1)
    minus = ghz_state(3, -1)
    col0 = np.kron(np.kron(plus, plus), plus)
    col1 = np.kron(np.kron(minus, minus), minus)
    return Isometry(1, 9, np.stack([col0, col1], axis=1))


def dicke_state(n_qubits: int, n_ones: int) -> np.ndarray:
    """Normalized symmetric superposition of all n-qubit strings with
    ``n_ones`` qubits in state |1>."""
    if not 0 <= n_ones <= n_qubits or n_qubits < 1:
        raise ContractViolationError(
            f"invalid excitation count {n_ones} for {n_qubits} qubits"
        )
    v = np.zeros(2**n_qubits, dtype=np.complex128)
    amp = 1.0 / math.sqrt(math.comb(n_qubits, n_ones))
    for ones in combinations(range(n_qubits), n_ones):
        idx = sum(1 << (n_qubits - 1 - q) for q in ones)
        v[idx] = amp
    return v


def gisin_massar_cloner(n_clones: int) -> Isometry:
    """Optimal symmetric 1 -> n qubit cloning isometry.

    Maps one qubit onto ``2 * n_clones - 1`` qubits: the first ``n_clones``
    sites carry the clones, the remaining ``n_clones - 1`` sites the
    complementary (anticlone) register.  On a basis input ``psi`` the image
    is

        sum_j a_j |(n-j) psi, j psi_perp>_sym (x) |(n-1-j) psi_perp, j psi>_sym

    with ``a_j = sqrt(2 (n - j) / (n (n + 1)))`` and ``|...>_sym`` the
    symmetric (Dicke) state with the stated composition.  The conjugation
    implicit in the anticlone register is taken in the computational basis,
    where |0> and |1> are their own conjugates; general inputs follow by
    linearity.
    """
    n = int(n_clones)
    if n < 1:
        raise ContractViolationError("need at least one clone")
    n_out = 2 * n - 1
    _require_dense_fits(f"cloner:{n}", 1, n_out, _BUILD_COPIES, _BUILD_SPARE)
    alphas = [math.sqrt(2.0 * (n - j) / (n * (n + 1))) for j in range(n)]

    matrix = np.zeros((2**n_out, 2), dtype=np.complex128)
    # column 0 encodes input |0> (psi=|0>, psi_perp=|1>); column 1 swaps them
    for flip in (0, 1):
        for j, alpha in enumerate(alphas):
            term = dicke_state(n, n - j if flip else j)
            if n > 1:  # np.kron of the two Dicke states, with fewer views
                term = np.multiply.outer(term, dicke_state(n - 1, j if flip else n - 1 - j))
                term = term.ravel()
            term *= alpha
            matrix[:, flip] += term
            del term  # so that the last term is not held through validation
    return Isometry(1, n_out, matrix)


def product_unitary(factors: Sequence[np.ndarray]) -> Isometry:
    """Tensor product of single-qubit unitaries, in site order.

    The product is held as its bond-1 operator chain: site ``k`` carries
    factor ``k`` as the fused 4-vector (fused index = 2 * output + input)
    divided by sqrt(2), and the chain's norm is ``sqrt(2**N)``.  Its matrix,
    the ``np.kron`` chain of the factors, is formed only when read.

    The product's Gram matrix is the Kronecker product of its factors' Gram
    matrices, so its eigenvalues are products of one eigenvalue of each
    factor's.  The spectral residual ``||U† U - I||`` is therefore
    ``max(prod(hi) - 1, 1 - prod(lo))`` over the extreme eigenvalues of the
    2x2 factor Grams, decided without forming ``U† U``.
    """
    factors = list(factors)
    if not factors:
        raise ContractViolationError("need at least one factor")
    if len(factors) > _MAX_QUBITS:
        raise ContractViolationError(f"at most {_MAX_QUBITS} factors supported")
    arrays = []
    for k, f in enumerate(factors):
        a = as_matrix(f, f"factor {k}")
        if a.shape != (2, 2):
            raise ContractViolationError(f"factor {k} is not 2x2: shape {a.shape}")
        arrays.append(a)
    owned = np.array(arrays)
    lo, hi = np.linalg.eigvalsh(dagger(owned) @ owned).T
    bad = np.flatnonzero(np.maximum(hi - 1.0, 1.0 - lo) > ISOMETRY_TOL)
    if bad.size:
        raise ContractViolationError(f"factor {bad[0]} is not unitary")
    n = len(owned)
    chain = Mps(tuple((owned / math.sqrt(2.0)).reshape(n, 4, 1, 1)),
                norm=math.sqrt(2.0**n), m_in=n)
    kron_chain = functools.partial(functools.reduce, np.kron, list(owned))
    low, high = math.prod(lo.tolist()), math.prod(hi.tolist())  # in site order, as the loop did
    return Isometry._from_chain(chain, max(high - 1.0, 1.0 - low), kron_chain)


#: Gaussian values in the row buffer of :func:`_gaussian_columns`: 64 KiB,
#: which draws no slower than 512 KiB.  ``tracemalloc`` measured a whole
#: draw at 3.1 matrices of the operator on ``random:1,10`` (the
#: matrix, the buffer of two matrices, then the QR) and at 3.1 to 4.1 on
#: Haar 5 -> 9 to 10 -> 10, where the QR of the kept columns sets the peak.
#: Beside these arrays a process holds about 34 MB once it has imported
#: ``numpy.random``, of which 3.3 MB is OpenSSL's libcrypto, loaded through
#: ``secrets``.
_DRAW_BLOCK = 2**13


def _gaussian_columns(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """The first ``cols`` columns of a complex Gaussian whose real and then
    imaginary part are drawn each as ``rng.standard_normal((dim, dim))``.
    The stream is that of the whole matrix, but only the kept columns are
    stored, straight into the real and imaginary views of one complex
    array, through one row buffer of :data:`_DRAW_BLOCK` values, or of one
    row, or of the whole part when it is smaller."""
    z = np.empty((dim, cols), dtype=np.complex128)
    buffer = np.empty((min(dim, max(1, _DRAW_BLOCK // dim)), dim))
    for part in (z.real, z.imag):
        for start in range(0, dim, len(buffer)):
            block = buffer[: dim - start]
            rng.standard_normal(out=block)
            part[start : start + len(block)] = block[:, :cols]
    return z


def _haar_columns(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """First ``cols`` columns of a Haar ``dim`` x ``dim`` unitary drawn from
    ``rng``.  The whole Gaussian matrix is drawn, so the stream does not
    depend on ``cols``, but only the kept columns are stored and
    QR-factored; the diagonal of R is made real positive.  The columns and
    Q are scaled in place."""
    z = _gaussian_columns(dim, cols, rng)
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q *= diag / np.abs(diag)
    return q


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary drawn from ``rng``.

    QR of a complex Gaussian matrix with the phase gauge fixed by making
    the diagonal of R real positive.
    """
    return _haar_columns(dim, dim, rng)


def random_isometry(m: int, n: int, seed: int) -> Isometry:
    """Seeded Haar-random isometry: the first ``2**m`` columns of a
    Haar-random ``2**n`` unitary.

    The stream is numpy's PCG64 generator seeded with ``seed``, drawn as a
    complex standard-normal ``2**n`` x ``2**n`` matrix whose first ``2**m``
    columns are orthonormalized by QR with a positive diagonal-of-R gauge,
    so a fixed seed reproduces the same matrix.  The seed must be
    non-negative.
    """
    if not 1 <= m <= n <= _MAX_QUBITS:
        raise ContractViolationError(
            f"need 1 <= m <= n <= {_MAX_QUBITS}, got m={m}, n={n}"
        )
    if seed < 0:
        raise ContractViolationError(f"seed must be non-negative, got seed={seed}")
    return Isometry(m, n, _haar_columns(2**n, 2**m, np.random.default_rng(seed)))
