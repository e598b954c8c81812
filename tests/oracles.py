"""Independent oracles used to cross-check the library.

Everything here is deliberately written from scratch against the raw
definitions (explicit index loops, direct dense SVDs) rather than through
the library's own sweep machinery, so that agreement between the two is
meaningful.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import struct

import numpy as np

from seqdecomp import ContractViolationError, Isometry, Mps, NumericFailureError, SequentialPlan
from seqdecomp.mps import CanonicalReport
from seqdecomp.sequencer import SequentialityReport
from seqdecomp.linalg import ISOMETRY_TOL, as_matrix, dagger, isometry_residual, svd


def schmidt_cut_ranks(psi, dims, tol=1e-10) -> tuple[int, ...]:
    """Numerical Schmidt rank across every contiguous cut, by direct SVD."""
    psi = np.asarray(psi, dtype=complex)
    ranks = []
    for c in range(1, len(dims)):
        m = psi.reshape(math.prod(dims[:c]), -1)
        s = np.linalg.svd(m, compute_uv=False)
        ranks.append(int(np.sum(s > tol * s[0])) if s[0] > 0 else 0)
    return tuple(ranks)


def schmidt_cut_weights(psi, dims, tol=1e-10) -> tuple[np.ndarray, ...]:
    """Normalized squared singular values above ``tol`` (relative) at every
    contiguous cut, by direct SVD."""
    psi = np.asarray(psi, dtype=complex)
    weights = []
    for c in range(1, len(dims)):
        s = np.linalg.svd(psi.reshape(math.prod(dims[:c]), -1), compute_uv=False)
        s = s[s > tol * s[0]]
        weights.append(s**2 / np.sum(s**2))
    return tuple(weights)


def fused_vector_loops(matrix, m, n) -> np.ndarray:
    """Vectorize an operator with input legs fused onto the first m sites.

    Explicit big-endian bit loop; fused index at site k is 2*i_k + j_k.
    """
    out = np.zeros(2 ** (n + m), dtype=complex)
    for row in range(2**n):
        for col in range(2**m):
            idx = 0
            for k in range(m):
                i_k = (row >> (n - 1 - k)) & 1
                j_k = (col >> (m - 1 - k)) & 1
                idx = idx * 4 + 2 * i_k + j_k
            for k in range(m, n):
                idx = idx * 2 + ((row >> (n - 1 - k)) & 1)
            out[idx] = matrix[row, col]
    return out


def operator_cut_ranks(u: Isometry, tol=1e-10) -> tuple[int, ...]:
    """Bipartition ranks of the fused vectorization, by direct SVD."""
    m, n = u.m_in, u.n_out
    vec = fused_vector_loops(u.matrix, m, n)
    dims = [4] * m + [2] * (n - m)
    return schmidt_cut_ranks(vec, dims, tol)


def reshuffle_loops(matrix, n, cut) -> np.ndarray:
    """Pair (outputs, inputs) of sites <= cut against the rest, entry by entry."""
    left, right = 2**cut, 2 ** (n - cut)
    out = np.zeros((left * left, right * right), dtype=complex)
    for i in range(2**n):
        for j in range(2**n):
            i_l, i_r = divmod(i, right)
            j_l, j_r = divmod(j, right)
            out[i_l * left + j_l, i_r * right + j_r] = matrix[i, j]
    return out


def reduced_rho_loops(psi, n, site) -> np.ndarray:
    """Single-qubit reduced density matrix by explicit index loops (0-based site)."""
    psi = np.asarray(psi, dtype=complex)
    rho = np.zeros((2, 2), dtype=complex)
    shift = n - 1 - site
    for a in range(2):
        for b in range(2):
            for rest in range(2 ** (n - 1)):
                high = rest >> shift
                low = rest & ((1 << shift) - 1)
                ia = (high << (shift + 1)) | (a << shift) | low
                ib = (high << (shift + 1)) | (b << shift) | low
                rho[a, b] += psi[ia] * np.conj(psi[ib])
    return rho


def step_columns_loops(t, fused: bool) -> np.ndarray:
    """Defined step-unitary columns of a canonical site tensor, entry by entry.

    Row 2*a + i holds right bond a and output i; on an input site column
    2*r + j holds left bond r and input j, scaled by sqrt(2); elsewhere
    column r holds left bond r with the chain qubit in |0>.
    """
    _, rgt, lft = t.shape
    inputs = 2 if fused else 1
    scale = math.sqrt(2.0) if fused else 1.0
    q = np.zeros((2 * rgt, inputs * lft), dtype=complex)
    for a in range(rgt):
        for i in range(2):
            for r in range(lft):
                for j in range(inputs):
                    phys = 2 * i + j if fused else i
                    q[2 * a + i, inputs * r + j] = scale * t[phys, a, r]
    return q


def swap_network_operator_mps(u: Isometry) -> Mps:
    """Redundant matrix-product form of a 1 -> N isometry, worst-case style.

    Mirrors the naive protocol that prepares the whole image in an
    (N-1)-qubit ancilla during the first interaction and then swaps one
    ancilla qubit onto each blank chain site: every interior bond has the
    full dimension 2**(N-1), regardless of the operator's entanglement.
    """
    assert u.m_in == 1 and u.n_out >= 2
    n = u.n_out
    bond = 2 ** (n - 1)
    half = 2 ** (n - 2)
    first = np.zeros((4, bond, 1), dtype=complex)
    for i in range(2):
        for j in range(2):
            first[2 * i + j, :, 0] = u.matrix[i * bond : (i + 1) * bond, j]
    tensors = [first]
    for _ in range(2, n):
        t = np.zeros((2, bond, bond), dtype=complex)
        for r in range(bond):
            i = r >> (n - 2)
            s = (r & (half - 1)) << 1
            t[i, s, r] = 1.0
        tensors.append(t)
    last = np.zeros((2, 1, bond), dtype=complex)
    for i in range(2):
        last[i, 0, i * half] = 1.0
    tensors.append(last)
    return Mps(tuple(tensors), m_in=1)


def gauge_inflate(mps, pad_to=None, seed=None):
    """Hide a chain's structure behind invertible bond gauges and zero padding.

    The contraction is unchanged: interior bonds are padded with zero rows
    and columns up to ``pad_to`` and every padded bond is conjugated by a
    well-conditioned random invertible matrix (identity when ``seed`` is
    None).  The result is shape-consistent but far from canonical.
    """
    rng = np.random.default_rng(seed) if seed is not None else None
    dims = mps.bond_dims
    n = mps.n_sites
    sizes = [1] + [max(d, pad_to or d) for d in dims[1:-1]] + [1]
    gauges = [np.eye(1, dtype=complex)]
    for c in range(1, n):
        g = np.eye(sizes[c], dtype=complex)
        if rng is not None:
            g = g + 0.3 * (
                rng.standard_normal((sizes[c],) * 2)
                + 1j * rng.standard_normal((sizes[c],) * 2)
            )
        gauges.append(g)
    gauges.append(np.eye(1, dtype=complex))
    tensors = []
    for m, t in enumerate(mps.tensors):
        d, rgt, lft = t.shape
        padded = np.zeros((d, sizes[m + 1], sizes[m]), dtype=complex)
        padded[:, :rgt, :lft] = t
        inv_left = np.linalg.inv(gauges[m])
        tensors.append(np.einsum("ab,ibc,cd->iad", gauges[m + 1], padded, inv_left))
    return Mps(tuple(tensors), norm=mps.norm, m_in=mps.m_in)


def contract_state(mps: Mps) -> np.ndarray:
    """Dense vector of a chain, fused legs left fused, one site at a time."""
    g = mps.tensors[0][:, :, 0]  # (d_1, D_2)
    for t in mps.tensors[1:]:
        g = np.einsum("pa,qba->pqb", g, t).reshape(-1, t.shape[1])
    return mps.norm * g[:, 0]


def gauge_residual(a: Mps, weights_a, b: Mps, weights_b) -> float:
    """Worst residual of the gauge relation between two canonical forms.

    Two canonical chains describe the same object exactly when there are
    unitaries ``V_m`` on the bonds, trivial at both boundaries and commuting
    with the weights, with ``b_tensor[i] = V_right @ a_tensor[i] @ V_left†``
    at every site.  The ``V_m`` are recovered site by site from the left as
    the least-squares unitary (polar factor).  Returns the largest of the
    relative gap of the norms, the gap of the sorted weight spectra, each
    ``V_m``'s failure to commute with its weights, each site's relation
    residual and the last ``V``'s distance from 1; ``inf`` when the
    physical dimensions, input site counts or bond dimensions differ.
    """
    if (a.physical_dims, a.m_in, a.bond_dims) != (b.physical_dims, b.m_in, b.bond_dims):
        return math.inf
    worst = abs(a.norm - b.norm) / max(a.norm, b.norm)
    for la, lb in zip(weights_a.lambdas, weights_b.lambdas):
        worst = max(worst, float(np.max(np.abs(np.sort(la)[::-1] - np.sort(lb)[::-1]))))
    v_left = np.eye(1, dtype=complex)
    lambdas = list(weights_a.lambdas) + [np.ones(1)]
    for ta, tb, lam in zip(a.tensors, b.tensors, lambdas):
        target = np.einsum("iab,bc->iac", tb, v_left)
        w, _, vd = np.linalg.svd(np.einsum("iac,ibc->ab", target, np.conj(ta)))
        v_left = w @ vd  # polar factor: the closest unitary
        commutator = v_left * lam[None, :] - lam[:, None] * v_left
        relation = target - np.einsum("ab,ibc->iac", v_left, ta)
        worst = max(worst, float(np.linalg.norm(commutator, 2)), float(np.max(np.abs(relation))))
    return max(worst, float(abs(v_left[0, 0] - 1.0)))


def dumps_tokens(obj) -> str:
    """Deterministic JSON text built as one token list, one branch per type.

    Keys sorted, floats with 17 significant digits, complex128 vectors and
    matrices through their nested [re, im] lists, non-finite numbers and
    unknown types refused; the reference for ``formats.dumps``.
    """
    pieces: list[str] = []
    _emit_tokens(obj, pieces)
    return "".join(pieces)


def _emit_tokens(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ContractViolationError("refusing to serialize a non-finite number")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit_tokens(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit_tokens(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        if obj.dtype != np.complex128 or obj.ndim not in (1, 2):
            raise ContractViolationError(f"cannot serialize a {obj.ndim}-D {obj.dtype} array")
        _emit_tokens(encode_matrix(obj), out)
    else:
        raise ContractViolationError(f"cannot serialize {type(obj).__name__}")


def encode_matrix(m) -> list:
    """Nested row-major [re, im] lists of a complex vector or matrix."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def decode_matrix_loops(data, rows, cols) -> np.ndarray:
    """Nested [re, im] matrix checked and converted entry by entry."""
    if not isinstance(data, list) or len(data) != rows:
        raise ContractViolationError(f"expected {rows} rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for r, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ContractViolationError(f"[{r}]: expected {cols} entries")
        for c, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) for x in entry)
            ):
                raise ContractViolationError(f"[{r}][{c}]: expected an [re, im] pair")
            if not all(math.isfinite(float(x)) for x in entry):
                raise ContractViolationError(f"[{r}][{c}]: non-finite entry")
            out[r, c] = complex(float(entry[0]), float(entry[1]))
    return out


def amplitudes_loops(doc, m_in) -> np.ndarray:
    """A JSON amplitude list, each entry a non-bool number or an [re, im] pair.

    Entry by entry and without a finiteness check: a non-finite amplitude
    only surfaces when the simulated state is serialized.
    """
    if not isinstance(doc, list) or len(doc) != 2**m_in:
        raise ContractViolationError(f"expected {2**m_in} amplitudes")
    amps = np.zeros(2**m_in, dtype=np.complex128)
    for k, entry in enumerate(doc):
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            amps[k] = float(entry)
        elif (
            isinstance(entry, list)
            and len(entry) == 2
            and all(isinstance(x, (int, float)) for x in entry)
        ):
            amps[k] = complex(float(entry[0]), float(entry[1]))
        else:
            raise ContractViolationError(f"[{k}]: expected a number or an [re, im] pair")
    return amps


def encode_block_entries(rows) -> str:
    """A plan file's step: base64 of each entry of the matrix ``rows``, row
    by row, packed as a little-endian (re, im) pair of doubles."""
    entries = [complex(z) for row in rows for z in row]
    return base64.b64encode(b"".join(struct.pack("<dd", z.real, z.imag) for z in entries)).decode()


def haar_columns_full(dim, cols, rng) -> np.ndarray:
    """First ``cols`` columns of a Haar unitary from the whole Gaussian matrix.

    Draws both ``dim`` x ``dim`` real Gaussians at once, slices the kept
    columns, QR-factors them and makes the diagonal of R real positive.
    """
    re = rng.standard_normal((dim, dim))[:, :cols]
    im = rng.standard_normal((dim, dim))[:, :cols]
    q, r = np.linalg.qr((re + 1j * im) / math.sqrt(2.0))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_isometry(m, n, seed) -> Isometry:
    """A Haar-distributed ``m -> n`` isometry, without drawing a whole
    ``2**n`` unitary."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2**n, 2**m)) + 1j * rng.standard_normal((2**n, 2**m))
    return Isometry(m, n, np.linalg.qr(z)[0])


def product_kron_dense(factors) -> tuple[np.ndarray, float]:
    """The Kronecker product of 2x2 unitaries and its dense Gram residual.

    Each factor's own Gram residual is refused above ``ISOMETRY_TOL``, as
    "factor k is not unitary".  The product is the ``np.kron`` chain in
    site order, returned with the spectral norm of its full ``2**N x 2**N``
    Gram residual ``U† U - I``, the largest modulus of an eigenvalue of that
    Hermitian matrix: the value that ``isometry_residual`` reports whenever
    it refuses, so that ``> ISOMETRY_TOL`` is its verdict.
    """
    total = np.eye(1, dtype=np.complex128)
    for k, f in enumerate(factors):
        a = as_matrix(f, f"factor {k}")
        if a.shape != (2, 2):
            raise ContractViolationError(f"factor {k} is not 2x2: shape {a.shape}")
        if isometry_residual(a) > ISOMETRY_TOL:
            raise ContractViolationError(f"factor {k} is not unitary")
        total = np.kron(total, a)
    gram = dagger(total) @ total - np.eye(total.shape[1])
    return total, float(np.abs(np.linalg.eigvalsh(gram)).max())


def isometry_defect_less_eye(q) -> float:
    """``linalg.isometry_defect`` with the identity subtracted from the Gram
    matrix as a fresh ``np.eye``."""
    rows, cols = q.shape
    g = dagger(q) @ q if rows >= cols else q @ dagger(q)
    defect = float(np.max(np.abs(np.linalg.eigvalsh(g - np.eye(g.shape[0])))))
    return defect if rows >= cols else max(defect, 1.0)


def isometry_residual_less_eye(q) -> float:
    """``linalg.isometry_residual`` with the identity subtracted from the Gram
    matrix as a fresh ``np.eye``."""
    frobenius = float(np.linalg.norm(dagger(q) @ q - np.eye(q.shape[1])))
    return frobenius if frobenius < ISOMETRY_TOL else isometry_defect_less_eye(q)


def check_canonical_loops(mps: Mps, weights) -> CanonicalReport:
    """``mps.check_canonical`` site by site and value by value: one Gram and
    one transport product per physical value, each residual's spectral norm
    from ``np.linalg.norm(..., 2)``, an SVD."""
    chain = [np.ones(1)] + list(weights.lambdas) + [np.ones(1)]
    res_norm = res_transport = 0.0
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
    res_weights = 0.0
    for lam in weights.lambdas:
        res_weights = max(res_weights, abs(float(np.sum(lam)) - 1.0), -float(np.min(lam)))
    return CanonicalReport(res_norm, res_transport, res_weights)


def criterion_loops(op: Mps) -> SequentialityReport:
    """``sequencer._criterion``'s report site by site: each input site's
    defined columns from ``step_columns_loops`` and one
    ``isometry_defect_less_eye`` call for each."""
    residuals = tuple(
        isometry_defect_less_eye(step_columns_loops(t, True)) for t in op.tensors[: op.m_in]
    )
    return SequentialityReport(
        max(residuals) < ISOMETRY_TOL, residuals, op.bond_dims, op.max_bond_dim
    )


def complete_to_unitary_loops(cols) -> np.ndarray:
    """Unitary completion by Gram–Schmidt over the standard basis.

    The first ``k`` columns are the input; the rest are the standard basis
    vectors, in index order, projected twice onto the orthogonal complement
    of everything accepted so far, skipping candidates whose projection is
    shorter than 1e-8.
    """
    q = as_matrix(cols, "cols")
    d, k = q.shape
    if k > d:
        raise ContractViolationError(f"more columns ({k}) than rows ({d})")
    gram_residual = isometry_residual(q)
    if gram_residual >= ISOMETRY_TOL:
        raise ContractViolationError(
            f"columns are not orthonormal: Gram residual {gram_residual:.3e}"
        )
    w = np.zeros((d, d), dtype=np.complex128)
    w[:, :k] = q
    have = k
    for e in range(d):
        if have == d:
            break
        v = np.zeros(d, dtype=np.complex128)
        v[e] = 1.0
        for _ in range(2):  # second projection pass mops up rounding residue
            v -= w[:, :have] @ (dagger(w[:, :have]) @ v)
        nv = float(np.linalg.norm(v))
        if nv < 1e-8:
            continue
        w[:, have] = v / nv
        have += 1
    if have != d:
        raise NumericFailureError("unitary completion exhausted the standard basis")
    return w


def eager_plan_steps(u: Isometry) -> tuple[np.ndarray, ...]:
    """The step unitaries of ``u``'s plan, completed eagerly, as
    ``build_plan`` formed them when a plan held its steps.

    Each step's defined columns, as the criterion reads them off the
    canonical chain, are zero padded to the ancilla and completed by one
    ``complete_to_unitary`` call; the defined columns go back where they
    act, and the orthogonal complement fills the rest in index order.
    """
    from seqdecomp.linalg import complete_to_unitary
    from seqdecomp.mps import operator_to_mps
    from seqdecomp.sequencer import _defined_columns

    op, _ = operator_to_mps(u)
    side = 2 * op.max_bond_dim
    steps = []
    for k, t in enumerate(op.tensors):
        q = _defined_columns(t, k < op.m_in)
        cols = np.zeros((side, q.shape[1]), dtype=np.complex128)
        cols[: q.shape[0]] = q
        completed = complete_to_unitary(cols)
        targets = np.arange(q.shape[1]) * (1 if k < op.m_in else 2)
        spare = np.ones(side, dtype=bool)
        spare[targets] = False
        v = np.empty_like(completed)
        v[:, np.concatenate([targets, np.flatnonzero(spare)])] = completed
        steps.append(v)
    return tuple(steps)


def svd_loops(m):
    """Truncated SVD rephased row by row, as ``(s, vd)``.

    Only the singular values above ``1e-10 * s[0]`` are kept.  Each kept
    row of ``vd`` is multiplied by the conjugate phase of its lead entry:
    the first whose modulus is within a relative 1e-10 of the row's
    largest.  The reference for ``linalg.svd``.
    """
    a = as_matrix(m)
    _, s, vd = np.linalg.svd(a, full_matrices=False)
    rank = 0
    while rank < s.size and s[rank] > 1e-10 * s[0]:
        rank += 1
    rows = []
    for row in vd[:rank]:
        modulus = np.abs(row)
        k = 0
        while modulus[k] < (1.0 - 1e-10) * modulus.max():
            k += 1
        lead = row[k]
        rows.append(row * (lead.conjugate() / abs(lead)))
    return s[:rank], np.array(rows, dtype=np.complex128).reshape(rank, vd.shape[1])


def run_chain_full_state(plan, inputs: np.ndarray) -> np.ndarray:
    """Run the chain on a ``(2**m_in, batch)`` block of input amplitudes.

    Each column starts as (input) x |0...0> with the ancilla in basis state
    0; the result holds the final joint states as ``(ancilla, chain, batch)``.
    Every step acts on the full-size state, with the qubits not yet reached
    carried as |0>; the reference runner for ``sequencer._rows``.
    """
    d_anc, n, m = plan.ancilla_dim, plan.n_out, plan.m_in
    batch = inputs.shape[1]
    state = np.zeros((d_anc, 2**m, 2 ** (n - m), batch), dtype=np.complex128)
    state[0, :, 0, :] = inputs
    for k, step in enumerate(plan.steps):
        if k:
            # step k-1 left (ancilla, site k-1, sites < k-1, site k, rest);
            # one copy brings site k next to the ancilla and site k-1 home
            state = state.reshape(d_anc, 2, 2 ** (k - 1), 2, -1).transpose(0, 3, 2, 1, 4)
        state = step @ state.reshape(2 * d_anc, -1)
    state = state.reshape(d_anc, 2, 2 ** (n - 1), batch).transpose(0, 2, 1, 3)
    return state.reshape(d_anc, 2**n, batch)


def simulate_full_state(plan, amps) -> tuple[np.ndarray, float]:
    """``sequencer.simulate`` through the reference runner, without its input checks."""
    final = run_chain_full_state(plan, np.asarray(amps, dtype=complex)[:, None])[..., 0]
    block = final[0]
    block_norm = float(np.linalg.norm(block))
    return (block / block_norm if block_norm > 0.0 else block), float(np.linalg.norm(final[1:]))


def corrupted(plan, k: int, rng) -> SequentialPlan:
    """``plan`` with block ``k`` replaced by the first columns of a Haar
    unitary, in the block's shape (:func:`haar_columns_full`): a plan whose
    chain still closes at bond 1 but no longer reproduces its operator."""
    blocks = list(plan.blocks)
    blocks[k] = haar_columns_full(*blocks[k].shape, rng)
    return SequentialPlan(plan.ancilla_dim, plan.m_in, tuple(blocks), plan.bond_dims)


def open_chain_rows_loops(tensors, norm=1.0) -> np.ndarray:
    """Every row of a qubit chain whose last bond is left open, as a
    ``(2**n, 2**inputs, right bond)`` array, one basis entry at a time.

    ``tensors`` are in the library's ``(phys, right, left)`` layout; a
    site of physical dimension 4 carries an input (fused index
    2 * output + input), and inputs are numbered in site order, the first
    most significant.  The reference for ``sequencer._rows``.
    """
    fused = [t.shape[0] == 4 for t in tensors]
    out = np.zeros((2 ** len(tensors), 2 ** sum(fused), tensors[-1].shape[1]), dtype=complex)
    for row, outputs in enumerate(itertools.product((0, 1), repeat=len(tensors))):
        for col, inputs in enumerate(itertools.product((0, 1), repeat=sum(fused))):
            vec = np.full(1, norm, dtype=complex)
            ins = iter(inputs)
            for t, i, f in zip(tensors, outputs, fused):
                vec = t[2 * i + next(ins) if f else i] @ vec
            out[row, col] = vec
    return out


def verify_plan_loops(plan, u: Isometry) -> tuple[float, float]:
    """``(max_error, max_decoupling_residual)`` of a plan, one basis column at
    a time through the reference runner: per column, the norm of the ancilla
    components that failed to decouple, and its hypotenuse with the error of
    the chain state.  The reference for ``sequencer.verify_plan``."""
    final = run_chain_full_state(plan, np.eye(2**u.m_in, dtype=complex))
    max_error = 0.0
    max_decouple = 0.0
    for j in range(2**u.m_in):
        decouple = float(np.linalg.norm(final[1:, :, j]))
        state_err = float(np.linalg.norm(final[0, :, j] - u.matrix[:, j]))
        max_decouple = max(max_decouple, decouple)
        max_error = max(max_error, math.hypot(state_err, decouple))
    return max_error, max_decouple


def operator_to_mps_regroup(u: Isometry):
    """Canonical chain of an operator by the fused-vector peel.

    The matrix is regrouped into one vector with the input leg of each of
    the first ``m_in`` sites fused to its output leg (fused index
    ``2 * output + input``), and that vector is peeled from the right, one
    SVD of the whole dense remainder per cut, through the library's
    ``linalg.svd`` and its phase rule.  Returns the site tensors, the
    squared Schmidt coefficients per cut and the norm: the reference for
    ``mps.operator_to_mps``.
    """
    n, m = u.n_out, u.m_in
    perm = []
    for k in range(m):
        perm += [k, n + k]
    perm += list(range(m, n))
    rest = u.matrix.reshape([2] * (n + m)).transpose(perm).reshape(-1, 1)
    dims = [4] * m + [2] * (n - m)
    tensors = [None] * n
    weights = [None] * (n - 1)
    for site in reversed(range(1, n)):
        block = rest.reshape(-1, dims[site] * rest.shape[1])
        s, vd = svd(block)
        tensors[site] = vd.reshape(s.size, dims[site], -1).transpose(1, 2, 0)
        weights[site - 1] = s
        rest = block @ dagger(vd)
    scale = float(np.linalg.norm(rest))
    tensors[0] = (rest / scale).reshape(1, dims[0], -1).transpose(1, 2, 0)
    return tuple(tensors), tuple((s / scale) ** 2 for s in weights), scale


def verify_plan_one_shot(plan, u: Isometry) -> tuple[float, float]:
    """``(max_error, max_decoupling_residual)`` of a plan from its whole
    operator: the chain contracted once with its input legs left open into
    a ``(2**n_out, 2**m_in, ancilla)`` array, one site per step, whose
    ancilla-0 block is compared with ``u.matrix``.  The reference for the
    block-wise ``sequencer.verify_plan``."""
    d = plan.ancilla_dim
    state = np.zeros((1, 1, d), dtype=np.complex128)
    state[0, 0, 0] = 1.0
    for k, step in enumerate(plan.steps):
        v = step.reshape(d, 2, d, 2)  # (ancilla', site', ancilla, input)
        emitted, rest = state.shape[:2]
        if k >= plan.m_in:
            w = v[..., 0].transpose(2, 1, 0).reshape(d, 2 * d)
            state = np.matmul(state.transpose(1, 0, 2), w)
            state = state.reshape(rest, 2 * emitted, d).transpose(1, 0, 2)
        else:
            w = v.transpose(1, 2, 3, 0).reshape(2, d, 2 * d)
            state = np.matmul(state[:, None], w).reshape(2 * emitted, 2 * rest, d)
    error = state.copy()
    error[:, :, 0] -= u.matrix
    state_sq = np.sum(np.abs(error[:, :, 0]) ** 2, axis=0)
    decouple_sq = np.sum(np.abs(error[:, :, 1:]) ** 2, axis=(0, 2))
    return math.sqrt(float((state_sq + decouple_sq).max())), math.sqrt(float(decouple_sq.max()))
