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
    _require_dense_fits(f"ghz:{n}", 1, n)
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
    _require_dense_fits(f"cloner:{n}", 1, n_out)
    alphas = [math.sqrt(2.0 * (n - j) / (n * (n + 1))) for j in range(n)]

    def image(flip: bool) -> np.ndarray:
        # flip=False encodes input |0> (psi=|0>, psi_perp=|1>); True swaps them.
        total = np.zeros(2**n_out, dtype=np.complex128)
        for j, alpha in enumerate(alphas):
            clone_ones = n - j if flip else j
            clones = dicke_state(n, clone_ones)
            if n == 1:
                total += alpha * clones
                continue
            anti_ones = j if flip else n - 1 - j
            total += alpha * np.kron(clones, dicke_state(n - 1, anti_ones))
        return total

    matrix = np.stack([image(False), image(True)], axis=1)
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


#: Gaussian draws per block in :func:`_gaussian_columns`.
_DRAW_BLOCK = 2**16


def _gaussian_columns(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """The first ``cols`` columns of ``rng.standard_normal((dim, dim))``,
    drawn in row blocks of about :data:`_DRAW_BLOCK` values, so that the
    stream is the same but only one block of dropped columns is held."""
    out = np.empty((dim, cols))
    rows = max(1, _DRAW_BLOCK // dim)
    for start in range(0, dim, rows):
        stop = min(start + rows, dim)
        out[start:stop] = rng.standard_normal((stop - start, dim))[:, :cols]
    return out


def _haar_columns(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """First ``cols`` columns of a Haar ``dim`` x ``dim`` unitary drawn from
    ``rng``.  The whole Gaussian matrix is drawn, so the stream does not
    depend on ``cols``, but only the kept columns are stored and QR-factored;
    the diagonal of R is made real positive."""
    re = _gaussian_columns(dim, cols, rng)
    im = _gaussian_columns(dim, cols, rng)
    q, r = np.linalg.qr((re + 1j * im) / math.sqrt(2.0))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


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
