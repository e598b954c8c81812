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
peeled.  A tall cut is factored through its R factor
(:func:`~seqdecomp.linalg.r_factor`), which has the singular values and
right singular vectors of the block; the carry to the next cut is the
block times the kept right vectors, so the left singular vectors of a tall
block are never formed.  A block is one matrix unless above a chunk of
rows; a taller one is read in row chunks, once for its R factor and once
for the carry, so at most one chunk of it is copied at a time.  Each row
of a canonical tensor is rephased so that its lead entry, the first within
a relative 1e-10 of the row's largest modulus, is real positive; the
tensors therefore do not depend on how a cut is factored.  A degenerate
Schmidt spectrum leaves a unitary gauge on the rows of a repeated
coefficient that no phase rule fixes.  Site 1 is the normalized rest; its
norm becomes ``norm``.  A chain is peeled once from its other end and then
peeled the same way.  Singular values at or below
:data:`~seqdecomp.linalg.RANK_TOL` times the largest are dropped at each
cut of each peel; that fixed cutoff is the only truncation of a bond.

Operators are handled by fusing the input leg with the output leg at each
of the first ``m_in`` sites (fused index = 2 * output + input) and
canonicalizing the vectorization; ``norm`` carries the operator scale,
which is ``sqrt(2 ** m_in)`` for an isometry.  The vectorization is never
formed: the first cut reads a transposed view of the operator's matrix, in
the fused order, and every later block is a view of the carry.  The rows
of a block stay in that order because it decides the SVD's basis within a
degenerate Schmidt spectrum.

An operator held as a chain needs no matrix at all.  A ``product`` is
held as its bond-1 chain, one fused 4-vector per factor, and
:func:`operator_to_mps`, the one canonicalization of each request, takes
it through :func:`canonicalize`; any other operator goes through the
dense peel of its matrix.  The norms of an operator chain's columns come
from one sweep of R factors that forms no row (:func:`_column_norms`).
The sum of two chains is one chain, their :func:`direct_sum`; the
difference chain that compares a plan with a target held as a chain is
built by it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import ContractViolationError, Frozen
from .linalg import ISOMETRY_TOL, _QR_ROWS, _require_dense_fits, dagger, isometry_defect, r_factor, svd

if TYPE_CHECKING:
    from .oplib import Isometry

#: Dense matrices' worth of memory that the dense peel of
#: :func:`operator_to_mps` holds at its peak: the operator itself plus the
#: peel's working copies, which ``tracemalloc`` measured at up to 5.4 times
#: the matrix on Haar isometries of 14 to 18 qubits in all, where a short
#: cut's SVD copies the block and forms its left vectors (2.0 on
#: ``cloner:7``, 1.5 on ``ghz:16``, 0.4 on the matrix of a 10-factor
#: product, whose tall cuts are read in chunks).
_PEEL_COPIES = 7

#: Fewest rows for which a cut is factored through its R factor; below it
#: the QR costs more than it saves (``timeit``: 128x2 +12 us, 256x4 even,
#: 256x16 1.8x faster than the SVD of the block itself).  A QR also pays
#: off only on a tall block: 1024x512 gains, 1024x1024 loses.
_QR_GATE = 2**8

#: Most rows of a tall block that the peel copies at once, a multiple of
#: :data:`~seqdecomp.linalg._QR_ROWS`.
_CHUNK_ROWS = 2**4 * _QR_ROWS


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


class Mps(Frozen):
    """Matrix-product state or operator; see the module docstring for the layout.

    A state chain has ``m_in == 0`` and any physical dimensions.  An
    ``m_in -> n_sites`` qubit operator has ``m_in >= 1``: its first ``m_in``
    sites carry fused physical legs of dimension 4 (fused index =
    2 * output + input) and the remaining sites output legs of dimension 2.
    Instances compare and hash by identity.
    """

    tensors: tuple[np.ndarray, ...]
    norm: float
    m_in: int

    def __init__(self, tensors, norm: float = 1.0, m_in: int = 0):
        tensors = _validate_chain(tensors)
        if not (np.isfinite(norm) and norm > 0):
            raise ContractViolationError(f"norm must be finite positive, got {norm}")
        if not 0 <= m_in <= len(tensors):
            raise ContractViolationError(f"m_in={m_in} out of range for {len(tensors)} sites")
        if m_in:
            for m, t in enumerate(tensors):
                want = 4 if m < m_in else 2
                if t.shape[0] != want:
                    raise ContractViolationError(
                        f"site {m + 1}: physical dimension {t.shape[0]}, expected {want}"
                    )
        self.__dict__.update(tensors=tensors, norm=norm, m_in=m_in)

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


class CanonicalWeights(Frozen):
    """Squared Schmidt coefficients for every interior cut of a chain.

    ``lambdas[m]`` belongs to the cut between sites ``m + 1`` and ``m + 2``
    (0-based tuple over the ``N - 1`` interior cuts); each vector is sorted
    descending, strictly positive, and sums to one.  Instances compare and
    hash by identity.
    """

    lambdas: tuple[np.ndarray, ...]

    def __init__(self, lambdas):
        arrays = []
        for c, lam in enumerate(lambdas):
            a = np.array(lam, dtype=np.float64)
            if a.ndim != 1 or a.size == 0 or not np.isfinite(a).all():
                raise ContractViolationError(f"cut {c + 1}: malformed weight vector")
            a.setflags(write=False)
            arrays.append(a)
        self.__dict__["lambdas"] = tuple(arrays)


class CanonicalReport(NamedTuple):
    """Maximum residuals of the three canonical-form conditions."""

    left_normalization: float
    weight_transport: float
    weight_validity: float

    @property
    def passed(self) -> bool:
        """Whether all three residuals stay below
        :data:`~seqdecomp.linalg.ISOMETRY_TOL`."""
        return (
            max(self.left_normalization, self.weight_transport, self.weight_validity)
            < ISOMETRY_TOL
        )


# ---------------------------------------------------------------------------
# contraction


def direct_sum(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The site tensors of a chain that contracts to the sum of the
    contractions of chains ``a`` and ``b``, two lists of site tensors of
    equal length in the module's layout, with the same physical dimensions.

    The first site stacks the two right bonds, the interior sites are block
    diagonal, and the last site stacks the two left bonds.  The two last
    right bonds share their leading states, so that a chain closed by a
    bond of 1 lands on state 0 of the other's open bond.  A chain of one
    site gets both rules.  Every interior bond is the sum of the two.
    """
    last = len(a) - 1
    sites = []
    for k, (x, y) in enumerate(zip(a, b, strict=True)):
        top = 0 if k == last else x.shape[1]  # where y's right bond starts
        left = 0 if k == 0 else x.shape[2]  # where y's left bond starts
        rows = max(x.shape[1], top + y.shape[1])
        t = np.zeros((len(x), rows, left + y.shape[2]), dtype=np.complex128)
        t[:, : x.shape[1], : x.shape[2]] = x
        t[:, top : top + y.shape[1], left:] += y  # a first and last site overlaps x
        sites.append(t)
    return sites


def _column_norms(tensors) -> np.ndarray:
    """The 2-norm of every input column of a qubit chain whose bonds at
    both ends are 1.

    ``tensors`` are in the module's layout, an input leg at a site of
    physical dimension 4.  Returns one norm per input, the last input
    site's input the most significant.

    One right-to-left sweep.  The sites right of a bond act on it as a
    matrix X, of which only an R factor is kept, with X's Gram matrix.
    Each site stacks R times its tensor over its output values and takes
    the R factor of that, an LQ step on the conjugate transpose, batched
    over the input values passed so far by one
    ``np.linalg.qr(..., mode="r")``; the first site leaves one column,
    whose norm is the answer.  Only orthogonal transforms act on the
    values, so a norm near rounding is resolved as well as any other,
    where a Gram or overlap formula stops near the square root of it.
    """
    x = np.ones((1, 1, 1), dtype=np.complex128)  # (batch, rows, right bond)
    for k in reversed(range(len(tensors))):
        d, rgt, lft = tensors[k].shape
        site = tensors[k].reshape(2, d // 2, rgt, lft).transpose(2, 1, 0, 3)  # (right, input, output, left)
        batch, rows = x.shape[:2]
        # one product for the whole batch, then (batch, input, output, rows, left)
        x = (x.reshape(-1, rgt) @ site.reshape(rgt, -1)).reshape(batch, rows, d // 2, 2, lft)
        x = x.transpose(0, 2, 3, 1, 4).reshape(-1, 2 * rows, lft)
        if k:
            x = np.linalg.qr(x, mode="r")
    return np.linalg.norm(x[..., 0], axis=1)


# ---------------------------------------------------------------------------
# canonicalization sweeps


def _chunks(block: np.ndarray, cols: int):
    """The rows of ``block.reshape(-1, cols)`` in order, as ``(first row,
    matrix)`` pairs of at most :data:`_CHUNK_ROWS` rows.

    The leading axes are walked one index at a time until the rest holds
    few enough rows, so a chunk of a transposed view is one copy of those
    rows and a chunk of a contiguous block is a view.
    """
    lead, per = 0, block.size // cols
    while per > _CHUNK_ROWS and block.shape[lead] < per:
        per //= block.shape[lead]
        lead += 1
    for k, index in enumerate(np.ndindex(block.shape[:lead])):
        rows = block[index].reshape(per, cols)
        for start in range(0, per, _CHUNK_ROWS):
            yield k * per + start, rows[start : start + _CHUNK_ROWS]


def _peel_cut(block: np.ndarray, cols: int):
    """Schmidt coefficients, kept right vectors and next carry of one cut.

    The cut splits ``block.reshape(-1, cols)``, whose trailing axes make
    the columns in (site, bond) order; the carry is that matrix times the
    kept right vectors.  A block that is short or fits one chunk is one
    matrix, read for the SVD, through its R factor when tall, and for the
    carry; a taller one is read in :func:`_chunks`, once for its R factor
    and once for the carry.
    """
    rows = block.size // cols
    tall = rows >= max(_QR_GATE, 2 * cols)
    if not tall or rows <= _CHUNK_ROWS:
        a = block.reshape(rows, cols)
        s, vd = svd(r_factor((a,)) if tall else a)
        return s, vd, a @ dagger(vd)
    s, vd = svd(r_factor(a for _, a in _chunks(block, cols)))
    vd_dagger = dagger(vd)
    carry = np.empty((rows, s.size), dtype=np.complex128)
    for start, a in _chunks(block, cols):
        np.matmul(a, vd_dagger, out=carry[start : start + len(a)])
    return s, vd, carry


def _right_sweep(dims: Sequence[int], block, carry: np.ndarray):
    """The right-to-left peel of the module docstring over sites of ``dims``.

    ``block(m, carry)`` views site ``m`` (0-based) in the carry of site
    ``m + 1``, the first in ``carry``, as an array whose trailing axes, the
    site's ``dims[m]`` values and then its right bond, make the columns.
    Returns the site tensors, the squared Schmidt vectors of the interior
    cuts (the :class:`CanonicalWeights` of a canonical result) and the norm
    scale.
    """
    n = len(dims)
    out = [None] * n
    schmidt = [None] * (n - 1)
    for m in reversed(range(1, n)):
        b = block(m, carry)
        s, vd, carry = _peel_cut(b, dims[m] * b.shape[-1])
        if s.size == 0:
            raise ContractViolationError("chain contracts to the zero vector")
        out[m] = vd.reshape(s.size, dims[m], b.shape[-1])
        schmidt[m - 1] = s
    row = block(0, carry)
    scale = float(np.linalg.norm(row))
    if scale == 0.0:
        raise ContractViolationError("chain contracts to the zero vector")
    out[0] = row.reshape(1, dims[0], row.shape[-1]) / scale
    tensors = tuple(np.transpose(r, (1, 2, 0)) for r in out)
    return tensors, tuple((s / scale) ** 2 for s in schmidt), scale


def _dense_sweep(legs: np.ndarray, dims: Sequence[int]):
    """:func:`_right_sweep` of a dense vector given as ``legs``, any view
    with the last site's values and a bond of 1 as its trailing axes.  The
    first block is ``legs`` itself and every later one a view of the carry,
    the dense remainder."""

    def peel(m, rest):
        return rest.reshape(-1, dims[m], rest.shape[1]) if rest.ndim == 2 else rest

    return _right_sweep(dims, peel, legs)


def _mirrored_sweep(tensors: Sequence[np.ndarray]):
    """:func:`_right_sweep` of a chain read from its other end: sites
    reversed, each tensor's bond axes swapped.  The carry is a bond matrix."""
    # (left, phys, right) of the mirrored chain
    mirror = [t.transpose(1, 0, 2) for t in reversed(tensors)]

    def peel(m, carry):
        # np.dot, as np.tensordot takes it; matmul rounds an outer product differently
        return np.dot(mirror[m].reshape(-1, len(carry)), carry).reshape(*mirror[m].shape[:2], -1)

    dims = [t.shape[1] for t in mirror]
    return _right_sweep(dims, peel, np.eye(1, dtype=np.complex128))


def state_to_mps(psi, dims: Sequence[int] | None = None) -> tuple[Mps, CanonicalWeights]:
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
    if abs(nrm - 1.0) > ISOMETRY_TOL:
        raise ContractViolationError(f"state is not normalized: |psi| = {nrm!r}")
    tensors, lambdas, scale = _dense_sweep(v.reshape(-1, dims[-1], 1), dims)
    return Mps(tensors, norm=scale), CanonicalWeights(lambdas)


def operator_to_mps(u: Isometry) -> tuple[Mps, CanonicalWeights]:
    """Canonical matrix-product form of an isometry, whatever it is held as.

    The input leg of site ``k <= m_in`` is fused with its output leg
    (fused index = 2 * output + input); the remaining sites carry output
    legs only.  The contraction of the result reproduces the operator
    entrywise.  An operator held as a chain (``u.chain``) goes through
    :func:`canonicalize` and its matrix is never read.  Any other is peeled
    from ``u.matrix``: like :func:`state_to_mps`, one SVD per interior cut,
    and a peel that would not fit in physical memory is refused before
    anything is allocated.
    """
    if u.chain is not None:
        return canonicalize(u.chain)
    n, m = u.n_out, u.m_in
    _require_dense_fits("canonicalization", m, n, _PEEL_COPIES)
    # matrix legs (i_1 .. i_n, j_1 .. j_m) -> (i_1 j_1, .., i_m j_m, i_{m+1} ..)
    perm = []
    for k in range(m):
        perm += [k, n + k]
    perm += list(range(m, n))
    legs = u.matrix.reshape([2] * (n + m)).transpose(perm)[..., None]
    tensors, lambdas, scale = _dense_sweep(legs, [4] * m + [2] * (n - m))
    return Mps(tensors, norm=scale, m_in=m), CanonicalWeights(lambdas)


def canonicalize(mps: Mps) -> tuple[Mps, CanonicalWeights]:
    """Bring an arbitrary shape-consistent chain into canonical form.

    The contraction is preserved up to the singular values dropped at each
    cut, those at or below :data:`~seqdecomp.linalg.RANK_TOL` relative to
    the largest; the output bond dimensions are the Schmidt ranks above
    that cutoff.  A chain that contracts to the zero vector is rejected.
    A chain takes two peels, ``2 * (N - 1)`` SVDs: the first, of the chain
    read from its other end, leaves sites 1..N-1 left-orthonormal; the
    second, of that result read back, is the canonical one.
    """
    once, _, first_scale = _mirrored_sweep(mps.tensors)
    tensors, lambdas, scale = _mirrored_sweep(once)
    canonical = Mps(tensors, norm=mps.norm * first_scale * scale, m_in=mps.m_in)
    return canonical, CanonicalWeights(lambdas)


# ---------------------------------------------------------------------------
# verification


def check_canonical(mps: Mps, weights: CanonicalWeights) -> CanonicalReport:
    """Residuals of the canonical-form conditions for a chain and its weights.

    Reports the worst spectral-norm deviation of left-normalization, of the
    weight-transport recursion, and of the weight vectors' positivity and
    unit trace.  Passes when all three stay below
    :data:`~seqdecomp.linalg.ISOMETRY_TOL`.  The sites of one tensor shape
    take one stacked :func:`~seqdecomp.linalg.isometry_defect`, as the
    criterion does, and one transport product over all their values, whose
    spectral norm comes from one stacked ``eigvalsh``.
    """
    n = mps.n_sites
    if len(weights.lambdas) != n - 1:
        raise ContractViolationError(
            f"{len(weights.lambdas)} weight vectors for {n - 1} interior cuts"
        )
    chain = [np.ones(1)] + list(weights.lambdas) + [np.ones(1)]
    for c in range(1, n):
        if chain[c].size != mps.tensors[c].shape[2]:
            raise ContractViolationError(
                f"cut {c}: weight length {chain[c].size} != bond {mps.tensors[c].shape[2]}"
            )
    res_norm = res_transport = res_weights = 0.0
    for d, rgt, lft in {t.shape for t in mps.tensors}:
        sites = [m for m, t in enumerate(mps.tensors) if t.shape == (d, rgt, lft)]
        t = np.stack([mps.tensors[m] for m in sites])
        side = t.transpose(0, 2, 1, 3)  # (site, right, value, left)
        w = np.stack([chain[m] for m in sites])[:, None, None]  # each site's left weights
        weighted = (side * w).reshape(-1, rgt, d * lft)
        push = weighted @ dagger(side.reshape(-1, rgt, d * lft))  # sum_i t[i] diag(w) t[i]†
        push.reshape(len(sites), -1)[:, :: rgt + 1] -= np.stack([chain[m + 1] for m in sites])
        # ||sum_i t[i]† t[i] - I|| of each site
        res_norm = max(res_norm, float(isometry_defect(t.reshape(-1, d * rgt, lft)).max()))
        res_transport = max(res_transport, float(np.abs(np.linalg.eigvalsh(push)).max()))
    for lam in weights.lambdas:
        res_weights = max(res_weights, abs(float(np.sum(lam)) - 1.0))
        res_weights = max(res_weights, max(0.0, -float(np.min(lam))))
    return CanonicalReport(res_norm, res_transport, res_weights)
