"""Tests for the dense linear-algebra primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdecomp import (
    ContractViolationError,
    NumericFailureError,
    cnot,
    complete_to_unitary,
    dagger,
    haar_unitary,
    reduced_density_matrix,
    svd,
)
from seqdecomp.linalg import _QR_ROWS, ISOMETRY_TOL, isometry_defect, isometry_residual, r_factor

from oracles import (
    isometry_defect_less_eye,
    isometry_residual_less_eye,
    reduced_rho_loops,
    svd_loops,
)


def test_svd_identity():
    s, vd = svd(np.eye(4, dtype=complex))
    assert np.allclose(s, [1, 1, 1, 1])
    assert vd.shape == (4, 4)


def test_svd_zero_matrix_rank_zero():
    s, vd = svd(np.zeros((3, 3), dtype=complex))
    assert s.shape == (0,)
    assert vd.shape == (0, 3)


def test_svd_reshuffled_cnot_singular_values():
    # rows pair the output and input legs of qubit 1, columns those of qubit 2
    r = cnot().matrix.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    s, vd = svd(r)
    assert np.allclose(s, [math.sqrt(2), math.sqrt(2)], atol=1e-12)
    assert vd.shape == (2, 4)
    # total weight must match the Frobenius norm of the gate
    assert np.isclose(np.sum(s**2), 4.0)


@pytest.mark.parametrize("shape", [(8, 8), (64, 17), (33, 128), (512, 512)])
def test_svd_reconstruction_random(shape):
    rng = np.random.default_rng(sum(shape))
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s, vd = svd(m)
    assert s.size == min(shape) == vd.shape[0]
    want = np.linalg.svd(m, compute_uv=False)
    assert np.max(np.abs(s - want)) <= 1e-12 * want[0]
    assert np.linalg.norm(vd @ dagger(vd) - np.eye(s.size), 2) < 1e-12
    # at full rank the rows span the row space of m
    assert np.linalg.norm((m @ dagger(vd)) @ vd - m) <= 1e-12 * np.linalg.norm(m)


def test_svd_drops_the_values_below_the_rank_cutoff():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
    y = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    m = x @ y
    s, vd = svd(m)
    assert s.size == 3 and vd.shape == (3, 7)
    assert np.max(np.abs(s - np.linalg.svd(m, compute_uv=False)[:3])) <= 1e-12 * s[0]
    assert np.linalg.norm((m @ dagger(vd)) @ vd - m) <= 1e-12 * np.linalg.norm(m)


def test_svd_phases_are_deterministic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    (s, vd), (s2, vd2) = svd(m), svd(m.copy())
    assert np.array_equal(s, s2)
    assert np.array_equal(vd, vd2)
    for row in vd:
        lead = row[int(np.argmax(np.abs(row)))]
        assert lead.real > 0 and abs(lead.imag) < 1e-14


@pytest.mark.parametrize("gap, lead", [(1e-12, 0), (1e-8, 1)], ids=["tied", "apart"])
def test_svd_leads_with_the_first_entry_tied_for_the_largest_modulus(gap, lead):
    # rows whose two entries differ in modulus by a relative `gap`; the
    # smaller one comes first and leads only when inside the tie band
    c = math.sqrt(0.5) * (1 - gap / 2)
    sn = math.sqrt(1 - c * c)
    v = np.array([[c * np.exp(0.3j), sn * np.exp(1.1j)], [-sn * np.exp(-0.4j), c * np.exp(2.0j)]])
    _, vd = svd(np.diag([3.0, 1.0]) @ v)
    assert abs(vd[0, lead].imag) < 1e-15 and vd[0, lead].real > 0
    assert abs(vd[0, 1 - lead].imag) > 0.1


def _sylvester_hadamard(n):
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def _phase_rule_inputs():
    rng = np.random.default_rng(11)

    def gaussian(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    shapes = [(1, 1), (1, 5), (5, 1), (2, 2), (4, 2), (2, 8), (8, 4), (32, 16), (17, 33)]
    shapes += [(64, 64), (128, 7)]
    for rows, cols in shapes:
        yield f"random {rows}x{cols}", gaussian(rows, cols)
        yield f"real {rows}x{cols}", rng.standard_normal((rows, cols))
        yield f"zero {rows}x{cols}", np.zeros((rows, cols))
        yield f"rank-1 {rows}x{cols}", np.outer(gaussian(rows, 1), gaussian(1, cols))
        zeroed = gaussian(rows, cols)
        zeroed[:, ::2] = 0.0
        yield f"zeroed columns {rows}x{cols}", zeroed
    for n in (1, 2, 4, 8, 64):
        h = _sylvester_hadamard(n)
        yield f"hadamard {n}", h
        yield f"phased hadamard {n}", np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * h
        yield f"hadamard columns {n}", h[:, : max(1, n // 2)] * 1j
        yield f"hadamard (x) identity {n}", np.kron(_sylvester_hadamard(2), np.eye(n))
    yield "random 512x512", gaussian(512, 512)
    yield "hadamard 512", _sylvester_hadamard(512)


def test_svd_phase_rule_matches_the_row_loop_bit_for_bit():
    for name, m in _phase_rule_inputs():
        s, vd = svd(m)
        want_s, want_vd = svd_loops(m)
        assert vd.tobytes() == want_vd.tobytes(), name
        assert s.tobytes() == want_s.tobytes(), name


def test_svd_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ContractViolationError):
        svd(bad)


def test_svd_names_the_shape_when_lapack_does_not_converge(monkeypatch):
    def diverge(*_, **__):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", diverge)
    with pytest.raises(NumericFailureError, match=r"SVD failed to converge for shape \(3, 2\)"):
        svd(np.ones((3, 2)))


@settings(max_examples=60, deadline=None)
@given(
    # short blocks, and blocks of several row blocks with a leftover
    rows=st.one_of(st.integers(1, 264), st.integers(256, 3 * _QR_ROWS + 300)),
    cols=st.integers(1, 64),
    # where the rows are split into chunks, aligned to the row blocks or not
    splits=st.lists(st.integers(0, 4 * _QR_ROWS), max_size=3),
    rank=st.integers(0, 64),
    real=st.booleans(),
    zero_rows=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_r_factor_keeps_the_singular_values_and_right_vectors(
    rows, cols, splits, rank, real, zero_rows, seed
):
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    x = rng.standard_normal((rows, rank))
    y = rng.standard_normal((rank, cols))
    if not real:
        x = x + 1j * rng.standard_normal((rows, rank))
        y = y + 1j * rng.standard_normal((rank, cols))
    a = x @ y
    a[rng.random(rows) < zero_rows] = 0.0
    r = r_factor(np.split(a, sorted(min(k, rows) for k in splits)))
    assert r.shape == (min(rows, cols), cols)
    want = np.linalg.svd(a, compute_uv=False)
    s_max = want[0] if want.size else 0.0
    s, vd = svd(r)
    # values that round to zero in one factoring may survive in the other
    assert np.max(np.abs(s - want[: s.size]), initial=0.0) <= 1e-13 * s_max
    assert np.max(want[s.size :], initial=0.0) <= 1e-13 * s_max
    norm = np.linalg.norm(a)
    assert np.linalg.norm(a @ dagger(vd) @ vd - a) <= 1e-13 * norm


def test_complete_to_unitary_e0():
    w = complete_to_unitary(np.array([[1.0], [0.0]], dtype=complex))
    assert np.array_equal(w, np.eye(2))


def test_complete_to_unitary_e1():
    col = np.array([[0.0], [1.0]], dtype=complex)
    w = complete_to_unitary(col)
    assert np.array_equal(w[:, :1], col)
    assert np.linalg.norm(dagger(w) @ w - np.eye(2), 2) < 1e-12


def test_complete_to_unitary_haar_prefix():
    u = haar_unitary(4, np.random.default_rng(11))
    cols = u[:, :2]
    w = complete_to_unitary(cols)
    assert np.array_equal(w[:, :2], cols)  # prefix is bit-identical
    assert np.linalg.norm(dagger(w) @ w - np.eye(4), 2) < 1e-11


def test_complete_to_unitary_rejects_non_orthonormal():
    cols = np.array([[1.0], [1.0]], dtype=complex)
    with pytest.raises(ContractViolationError, match="Gram"):
        complete_to_unitary(cols)


def test_complete_to_unitary_determinism_many_dims():
    for d, k, seed in [(3, 1, 0), (5, 3, 1), (16, 7, 2)]:
        u = haar_unitary(d, np.random.default_rng(seed))[:, :k]
        assert np.array_equal(complete_to_unitary(u), complete_to_unitary(u.copy()))


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 128),
    data=st.data(),
    kind=st.sampled_from(["haar", "basis", "padded"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_complete_to_unitary_keeps_the_prefix_and_is_unitary(d, data, kind, seed):
    k = data.draw(st.integers(1, d))
    rng = np.random.default_rng(seed)
    if kind == "haar":
        cols = haar_unitary(d, rng)[:, :k]
    elif kind == "basis":  # phased, permuted standard-basis columns
        cols = np.zeros((d, k), dtype=complex)
        cols[rng.permutation(d)[:k], np.arange(k)] = np.exp(2j * np.pi * rng.random(k))
    else:  # a Haar block zero-padded below, as build_plan embeds small bonds
        rows = int(rng.integers(k, d + 1))
        cols = np.zeros((d, k), dtype=complex)
        cols[:rows] = haar_unitary(rows, rng)[:, :k]
    w = complete_to_unitary(cols)
    assert w.shape == (d, d)
    assert w[:, :k].tobytes() == cols.tobytes()
    assert np.linalg.norm(dagger(w) @ w - np.eye(d), 2) <= 1e-13
    assert complete_to_unitary(np.asfortranarray(cols)).tobytes() == w.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    qubits=st.integers(1, 5),
    input_qubits=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-2.0, 2.0),
    wide=st.booleans(),
    zeros=st.sampled_from(["none", "zero", "-0.0"]),
)
def test_isometry_residual_matches_spectral_verdicts(
    qubits, input_qubits, seed, log_scale, wide, zeros
):
    # an isometry plus a perturbation whose spectral residual is about
    # tol * 10**log_scale, i.e. anywhere in [tol / 100, 100 * tol]; a wide
    # draw is its adjoint, whose residual is at least 1 unless it is square;
    # a "zero" draw is the zero matrix of its shape, and a "-0.0" draw has
    # about half its real and imaginary parts set to -0.0
    tol = ISOMETRY_TOL
    dim = 2**qubits
    k = 2 ** min(input_qubits, qubits)
    rng = np.random.default_rng(seed)
    q = haar_unitary(dim, rng)[:, :k]
    z = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    first_order = np.linalg.norm(dagger(q) @ z + dagger(z) @ q, 2)
    a = q + (tol * 10.0**log_scale / first_order) * z
    if wide:
        a = dagger(a)
    if zeros == "zero":
        a = np.zeros_like(a)
    elif zeros == "-0.0":
        a = np.ascontiguousarray(a)
        parts = a.view(np.float64)
        parts[rng.random(parts.shape) < 0.5] = -0.0
    # 1 taken off the Gram's diagonal in place gives the bits of g - I
    for residual, less_eye in [
        (isometry_residual, isometry_residual_less_eye),
        (isometry_defect, isometry_defect_less_eye),
    ]:
        assert np.float64(residual(a)).tobytes() == np.float64(less_eye(a)).tobytes()
    gram = dagger(a) @ a - np.eye(a.shape[1])
    exact = float(np.linalg.norm(gram, 2))
    value = isometry_residual(a)
    rounding = dim * np.finfo(float).eps
    if np.linalg.norm(gram) < tol:
        assert exact <= value < tol
    else:
        # the sequentiality criterion's residual, so both decide from one value
        assert value == isometry_defect(a)
        assert math.isclose(value, exact, rel_tol=1e-12, abs_tol=rounding)
    # eigvalsh and the SVD round apart only within the Gram matrix's rounding
    if abs(exact - tol) > rounding:
        assert (value > tol) == (exact > tol)
        assert (value >= tol) == (exact >= tol)


def test_reduced_density_matrix_matches_loops():
    rng = np.random.default_rng(21)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    for site in range(4):
        rho = reduced_density_matrix(psi, [2] * 4, site)
        assert np.allclose(rho, reduced_rho_loops(psi, 4, site), atol=1e-13)
        assert np.isclose(np.trace(rho).real, 1.0)


#: Refusals of the dense helpers, each with the message it raises.
_LINALG_REFUSALS = {
    "1-D matrix": (
        lambda: complete_to_unitary(np.ones(2)),
        "cols must be a nonempty 2-D array, got shape (2,)",
    ),
    "more columns than rows": (
        lambda: complete_to_unitary(np.eye(1, 2)), "more columns (2) than rows (1)"
    ),
    "state of another length": (
        lambda: reduced_density_matrix(np.ones(4) / 2, [2, 3], 0),
        "state length 4 does not match dims (2, 3)",
    ),
    "subsystem past the last": (
        lambda: reduced_density_matrix(np.ones(4) / 2, [2, 2], 2),
        "subsystem index 2 out of range",
    ),
}


@pytest.mark.parametrize("case", list(_LINALG_REFUSALS))
def test_malformed_dense_inputs_are_refused_by_name(case):
    build, message = _LINALG_REFUSALS[case]
    with pytest.raises(ContractViolationError) as exc:
        build()
    assert str(exc.value) == message
