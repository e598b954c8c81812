"""Independent oracles used to cross-check the library.

Everything here is deliberately written from scratch against the raw
definitions (explicit index loops, direct dense SVDs) rather than through
the library's own sweep machinery, so that agreement between the two is
meaningful.
"""

from __future__ import annotations

import json
import math

import numpy as np

from seqdecomp import ContractViolationError, Isometry, Mps


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
