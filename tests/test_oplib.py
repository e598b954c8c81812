"""Tests for the operator library constructors."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdecomp import (
    ContractViolationError,
    Isometry,
    cnot,
    dagger,
    dicke_state,
    ghz_isometry,
    ghz_state,
    gisin_massar_cloner,
    haar_unitary,
    operator_schmidt_ranks,
    product_unitary,
    random_isometry,
    sequentiality_test,
    shor_encoder,
    state_to_mps,
)
from seqdecomp import oplib
from seqdecomp.oplib import ISOMETRY_TOL

from oracles import (
    haar_columns_full,
    product_kron_dense,
    reduced_rho_loops,
    schmidt_cut_ranks,
)


def isometry_residual(u):
    return np.linalg.norm(dagger(u.matrix) @ u.matrix - np.eye(2**u.m_in), 2)


def test_every_constructor_passes_the_contract():
    ops = [
        cnot(),
        shor_encoder(),
        ghz_isometry(4),
        gisin_massar_cloner(2),
        gisin_massar_cloner(3),
        random_isometry(2, 4, seed=5),
        product_unitary([haar_unitary(2, np.random.default_rng(k)) for k in range(3)]),
    ]
    for op in ops:
        assert isometry_residual(op) < 1e-10


def test_cnot_action():
    u = cnot().matrix
    basis = np.eye(4)
    assert np.array_equal(u @ basis[:, 2], basis[:, 3])  # |10> -> |11>
    assert np.array_equal(u @ basis[:, 0], basis[:, 0])  # |00> -> |00>
    plus_zero = np.array([1, 0, 1, 0]) / math.sqrt(2)
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    assert np.allclose(u @ plus_zero, bell)


def test_shor_encoder_columns():
    u = shor_encoder()
    col0 = u.matrix[:, 0]
    nonzero = np.abs(col0) > 1e-15
    assert np.count_nonzero(nonzero) == 8
    assert np.allclose(np.abs(col0[nonzero]), 2.0 ** (-1.5))
    assert abs(np.vdot(col0, u.matrix[:, 1])) < 1e-14
    # branch bond dimensions: both images have Schmidt rank 2 everywhere inside blocks
    for col in range(2):
        mps, _ = state_to_mps(u.matrix[:, col])
        assert mps.max_bond_dim == 2


def test_dicke_states():
    assert np.allclose(dicke_state(2, 1), [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
    assert np.isclose(np.linalg.norm(dicke_state(5, 2)), 1.0)
    with pytest.raises(ContractViolationError):
        dicke_state(2, 3)


def test_cloner_coefficients_n2():
    u = gisin_massar_cloner(2)
    col0 = u.matrix[:, 0]
    # image of |0>: sqrt(2/3) |00>|1> + sqrt(1/3) (|01>+|10>)/sqrt(2) |0>
    assert np.isclose(col0[0b001], math.sqrt(2.0 / 3.0))
    assert np.isclose(col0[0b010], math.sqrt(1.0 / 3.0) / math.sqrt(2.0))
    assert np.isclose(col0[0b100], math.sqrt(1.0 / 3.0) / math.sqrt(2.0))
    assert np.isclose(np.sum(np.abs(col0) ** 2), 1.0)


@pytest.mark.parametrize("n,fidelity", [(2, 5.0 / 6.0), (3, 7.0 / 9.0), (4, 3.0 / 4.0)])
def test_cloner_clones_are_equal_with_known_fidelity(n, fidelity):
    u = gisin_massar_cloner(n)
    for col in range(2):
        psi = u.matrix[:, col]
        rhos = [reduced_rho_loops(psi, 2 * n - 1, site) for site in range(n)]
        for rho in rhos[1:]:
            assert np.max(np.abs(rho - rhos[0])) < 1e-10
        assert np.isclose(rhos[0][col, col].real, fidelity, atol=1e-12)


def test_cloner_branch_bond_dimensions_equal_n():
    u = gisin_massar_cloner(3)
    for col in range(2):
        mps, _ = state_to_mps(u.matrix[:, col])
        assert mps.max_bond_dim == 3
        assert mps.bond_dims[1:-1] == schmidt_cut_ranks(u.matrix[:, col], [2] * 5)


def test_cloner_degenerate_single_clone_is_identity():
    u = gisin_massar_cloner(1)
    assert np.allclose(u.matrix, np.eye(2))


def test_ghz_isometry():
    u1 = ghz_isometry(1)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    assert np.allclose(u1.matrix, h)
    u3 = ghz_isometry(3)
    assert np.allclose(u3.matrix[:, 0], ghz_state(3, +1))
    report = sequentiality_test(u3)
    assert report.implementable
    assert report.ancilla_dim_if_yes == 2


def test_random_isometry_is_reproducible_and_entangling():
    a = random_isometry(2, 3, seed=42)
    b = random_isometry(2, 3, seed=42)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, random_isometry(2, 3, seed=43).matrix)
    # a Haar-random two-qubit unitary is entangling with probability one
    u = random_isometry(2, 2, seed=42)
    assert max(operator_schmidt_ranks(u)) > 1
    assert not sequentiality_test(u).implementable
    # while any 1 -> n isometry is always sequentially implementable
    assert sequentiality_test(random_isometry(1, 3, seed=42)).implementable


@pytest.mark.parametrize("m, n", [(1, 1), (1, 4), (2, 5), (3, 3), (5, 8), (6, 7), (6, 9), (7, 8)])
def test_random_isometry_is_the_column_prefix_of_a_haar_unitary(m, n):
    u = random_isometry(m, n, seed=17 + n)
    full = haar_unitary(2**n, np.random.default_rng(17 + n))
    assert u.matrix.shape == (2**n, 2**m)
    assert np.max(np.abs(u.matrix - full[:, : 2**m])) < 1e-14
    assert np.array_equal(u.matrix, random_isometry(m, n, seed=17 + n).matrix)


@pytest.mark.parametrize("m, n", [(m, n) for n in range(1, 11) for m in range(1, n + 1)])
def test_random_isometry_equals_the_full_gaussian_draw_bitwise(m, n):
    # the draw runs in row blocks but must keep the stream and every bit
    expected = haar_columns_full(2**n, 2**m, np.random.default_rng(7))
    assert random_isometry(m, n, seed=7).matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("block", [3 * 2**6, 5 * 2**6 + 7, 2**5])
def test_a_draw_block_that_does_not_divide_the_rows_keeps_every_bit(block, monkeypatch):
    # 64 rows in blocks of 3 and of 5 rows, and of one row for a block
    # shorter than a row: the last block is a partial one, or a single row
    expected = haar_columns_full(2**6, 2**2, np.random.default_rng(9))
    monkeypatch.setattr(oplib, "_DRAW_BLOCK", block)
    assert random_isometry(2, 6, seed=9).matrix.tobytes() == expected.tobytes()


def test_random_isometry_holds_one_draw_block_at_a_time():
    # in matrices of the 1 -> 10 operator, 32 KiB: 3.1 measured, for the
    # matrix drawn in place, its 64 KiB row buffer and QR's copies, where
    # drawing through 512 KiB blocks and separate real and imaginary parts
    # took 17.1
    random_isometry(1, 2, seed=0)  # first calls import numpy modules lazily
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        u = random_isometry(1, 10, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 4 * u.matrix.nbytes


def test_isometry_accepts_spectral_residual_below_frobenius_bound():
    # every column stretched by the same tiny amount: the Gram residual is
    # eps * I, whose Frobenius norm 2 * eps is above the tolerance while the
    # spectral norm eps is not, so the check must fall back to the 2-norm
    eps = 0.8 * ISOMETRY_TOL
    a = math.sqrt(1.0 + eps) * haar_unitary(4, np.random.default_rng(5))
    gram = dagger(a) @ a - np.eye(4)
    assert np.linalg.norm(gram) > ISOMETRY_TOL >= np.linalg.norm(gram, 2)
    assert np.array_equal(Isometry(2, 2, a).matrix, a)
    with pytest.raises(ContractViolationError, match="not an isometry"):
        Isometry(2, 2, math.sqrt(1.0 + 2.0 * ISOMETRY_TOL) * a)


def test_random_isometry_bounds():
    with pytest.raises(ContractViolationError):
        random_isometry(3, 2, seed=0)
    with pytest.raises(ContractViolationError):
        random_isometry(1, 11, seed=0)


def test_product_unitary():
    eye = np.eye(2, dtype=complex)
    assert np.allclose(product_unitary([eye, eye]).matrix, np.eye(4))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    xx = product_unitary([x, x]).matrix
    assert xx[0b11, 0b00] == 1.0
    rng = np.random.default_rng(3)
    factors = [haar_unitary(2, rng) for _ in range(3)]
    u = product_unitary(factors)
    assert operator_schmidt_ranks(u) == (1, 1)
    with pytest.raises(ContractViolationError, match="unitary"):
        product_unitary([np.array([[1, 1], [0, 1]], dtype=complex)])


#: Distance from ISOMETRY_TOL within which rounding may decide a verdict.
VERDICT_BAND = 1e-13


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    deltas=st.lists(st.floats(-5e-11, 5e-11), min_size=1, max_size=10),
)
@example(seed=1, deltas=[2e-11] * 10)
@example(seed=2, deltas=[-2e-11] * 10)
def test_product_residual_matches_the_dense_gram(seed, deltas):
    # Haar factors scaled by (1 + delta_k): each passes or fails its own check
    # near the tolerance, and their product's residual straddles it
    rng = np.random.default_rng(seed)
    factors = [(1.0 + d) * haar_unitary(2, rng) for d in deltas]
    seen = []
    refuse = oplib._require_isometry
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oplib, "_require_isometry", lambda r: seen.append(r) or refuse(r))
        try:
            u, error = product_unitary(factors), None
        except ContractViolationError as exc:
            u, error = None, str(exc)
    # a factor whose own residual is this close to the tolerance may go either way
    rounding_decides = any(
        abs(np.linalg.norm(dagger(f) @ f - np.eye(2), 2) - ISOMETRY_TOL) <= VERDICT_BAND
        for f in factors
    )
    try:
        expected, dense = product_kron_dense(factors)
    except ContractViolationError as exc:
        assert error == str(exc) or rounding_decides
        return
    if error is not None and error.startswith("factor"):
        assert rounding_decides
        return
    assert len(seen) == 1 and abs(seen[0] - dense) <= 1e-13
    if abs(dense - ISOMETRY_TOL) <= VERDICT_BAND:
        return
    if dense > ISOMETRY_TOL:
        assert error == f"matrix is not an isometry: residual {seen[0]:.3e}"
        return
    assert error is None
    assert u.matrix.tobytes() == expected.tobytes()
    assert u.matrix.dtype == np.complex128 and not u.matrix.flags.writeable


def test_product_matrix_is_the_kron_chain_bit_for_bit():
    rng = np.random.default_rng(41)
    factors = [haar_unitary(2, rng) for _ in range(10)]
    expected, _ = product_kron_dense(factors)
    u = product_unitary(factors)
    assert (u.m_in, u.n_out) == (10, 10)
    assert u.matrix.dtype == np.complex128 and u.matrix.shape == expected.shape
    assert u.matrix.tobytes() == expected.tobytes()
    assert not u.matrix.flags.writeable
    # the product owns its matrix: the caller's factors stay writable
    assert all(f.flags.writeable for f in factors)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 10),
    data=st.data(),
)
def test_the_stacked_factor_check_names_the_first_non_unitary_factor(seed, n, data):
    # factors scaled by 1 + 1e-6 are far beyond the tolerance; the stacked
    # check must name the first of them, as the factor-by-factor loop did
    bad = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    rng = np.random.default_rng(seed)
    factors = [(1.0 + 1e-6 * (k in bad)) * haar_unitary(2, rng) for k in range(n)]
    with pytest.raises(ContractViolationError) as exc:
        product_unitary(factors)
    assert str(exc.value) == f"factor {min(bad)} is not unitary"


def test_product_takes_no_gram_larger_than_its_factors(monkeypatch):
    # the 1024 x 1024 product is validated through its ten 2 x 2 factors
    shapes = []
    residual, eigvalsh = oplib.isometry_residual, np.linalg.eigvalsh
    monkeypatch.setattr(oplib, "isometry_residual", lambda a: shapes.append(a.shape) or residual(a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: shapes.append(g.shape) or eigvalsh(g))
    rng = np.random.default_rng(43)
    product_unitary([haar_unitary(2, rng) for _ in range(10)])
    # at most one call, a stack of the factor Grams
    assert len(shapes) <= 1 and all(shape[-2:] == (2, 2) for shape in shapes)
    shapes.clear()
    cnot()  # the dense constructors still take the full Gram
    assert shapes == [(4, 4)]


#: Refusals of the operator constructors, each with the message it raises.
_OPLIB_REFUSALS = {
    "no input qubit": (
        lambda: Isometry(0, 1, np.eye(2)), "need 1 <= m_in <= n_out, got 0 -> 1"
    ),
    "matrix of another shape": (
        lambda: Isometry(1, 1, np.eye(4)),
        "matrix shape (4, 4) does not match (2, 2) for 1 -> 1 qubits",
    ),
    "GHZ state of no qubit": (lambda: ghz_state(0), "need at least one qubit"),
    "product of no factor": (lambda: product_unitary([]), "need at least one factor"),
    "4x4 factor": (
        lambda: product_unitary([np.eye(2), np.eye(4)]), "factor 1 is not 2x2: shape (4, 4)"
    ),
}


@pytest.mark.parametrize("case", list(_OPLIB_REFUSALS))
def test_malformed_operators_are_refused_by_name(case):
    build, message = _OPLIB_REFUSALS[case]
    with pytest.raises(ContractViolationError) as exc:
        build()
    assert str(exc.value) == message
