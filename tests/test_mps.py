"""Tests for matrix-product forms, canonicalization, and gauge checks."""

import math
import os
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqdecomp
from seqdecomp import (
    ContractViolationError,
    Isometry,
    Mps,
    build_plan,
    canonicalize,
    check_canonical,
    cnot,
    contract_operator,
    ghz_isometry,
    ghz_state,
    gisin_massar_cloner,
    haar_unitary,
    operator_to_mps,
    product_unitary,
    random_isometry,
    sequentiality_test,
    shor_encoder,
    state_to_mps,
)
from seqdecomp import cli, formats, linalg, oplib, sequencer
from seqdecomp import mps as mps_module

from oracles import (
    contract_state,
    fused_vector_loops,
    gauge_inflate,
    gauge_residual,
    haar_isometry,
    operator_cut_ranks,
    operator_to_mps_regroup,
    schmidt_cut_ranks,
    schmidt_cut_weights,
    swap_network_operator_mps,
)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# state_to_mps


def test_product_state_has_trivial_bonds():
    psi = np.zeros(16, dtype=complex)
    psi[0] = 1.0
    mps, weights = state_to_mps(psi)
    assert mps.bond_dims == (1, 1, 1, 1, 1)
    assert all(w.size == 1 for w in weights.lambdas)
    assert np.allclose(contract_state(mps), psi)


def test_ghz_state_bonds_and_weights():
    mps, weights = state_to_mps(ghz_state(3))
    assert mps.bond_dims == (1, 2, 2, 1)
    for lam in weights.lambdas:
        assert np.allclose(lam, [0.5, 0.5], atol=1e-12)
    assert np.linalg.norm(contract_state(mps) - ghz_state(3)) < 1e-12


def test_shor_image_state_max_bond_two():
    psi = shor_encoder().matrix[:, 0]
    mps, _ = state_to_mps(psi)
    oracle = schmidt_cut_ranks(psi, [2] * 9)
    assert mps.bond_dims[1:-1] == oracle
    assert mps.max_bond_dim == 2


def test_state_to_mps_rejects_unnormalized_and_mismatched():
    with pytest.raises(ContractViolationError, match="normalized"):
        state_to_mps(np.ones(4, dtype=complex))
    with pytest.raises(ContractViolationError, match="dims"):
        state_to_mps(np.ones(6, dtype=complex) / np.sqrt(6))


def test_state_round_trip_random_states():
    for n, seed in [(2, 0), (5, 1), (8, 2), (10, 3)]:
        psi = random_state(n, seed)
        mps, weights = state_to_mps(psi)
        assert np.linalg.norm(contract_state(mps) - psi) <= 1e-10
        assert mps.bond_dims[1:-1] == schmidt_cut_ranks(psi, [2] * n)
        assert check_canonical(mps, weights).passed


# ---------------------------------------------------------------------------
# operator_to_mps


def test_identity_operator_single_site():
    op, weights = operator_to_mps(Isometry(1, 1, np.eye(2, dtype=complex)))
    assert op.n_sites == 1
    assert op.bond_dims == (1, 1)
    assert weights.lambdas == ()
    assert np.allclose(contract_operator(op), np.eye(2))


def test_cnot_operator_bonds():
    op, _ = operator_to_mps(cnot())
    assert op.bond_dims == (1, 2, 1)
    assert np.linalg.norm(contract_operator(op) - cnot().matrix) < 1e-12


def test_shor_operator_max_bond_four():
    u = shor_encoder()
    op, _ = operator_to_mps(u)
    assert op.max_bond_dim == 4
    assert op.bond_dims[1:-1] == operator_cut_ranks(u)
    assert np.max(np.abs(contract_operator(op) - u.matrix)) < 1e-10


def test_operator_fusing_matches_loop_oracle():
    u = ghz_isometry(3)
    op, _ = operator_to_mps(u)
    vec = contract_state(op)
    assert np.allclose(vec, fused_vector_loops(u.matrix, 1, 3), atol=1e-12)


@pytest.mark.parametrize(
    "build, svd_calls",
    [(lambda: random_isometry(3, 7, 1), 6), (shor_encoder, 8)],
    ids=["random:3,7,1", "shor"],
)
def test_dense_canonicalization_is_one_sweep(build, svd_calls, monkeypatch):
    # one SVD per interior cut for a dense operator; a chain needs two sweeps
    calls = []
    svd = mps_module.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(mps_module, "svd", counted)
    op, _ = operator_to_mps(build())
    assert len(calls) == op.n_sites - 1 == svd_calls
    calls.clear()
    canonicalize(op)
    assert len(calls) == 2 * op.n_sites - 2


def haar_product(n, seed):
    rng = np.random.default_rng(seed)
    factors = [haar_unitary(2, rng) for _ in range(n)]
    # fused index 2 * output + input is the row-major flattening of a factor
    fused = reduce(np.kron, [f.reshape(4) for f in factors])
    return product_unitary(factors), fused / np.linalg.norm(fused)


def held_dense(u):
    """``u`` held as its matrix, so that ``operator_to_mps`` peels it
    densely where ``u`` itself would go through its chain."""
    return Isometry(u.m_in, u.n_out, u.matrix)


def assert_cuts_match_the_oracle(result, psi, dims):
    mps, weights = result
    assert mps.bond_dims[1:-1] == schmidt_cut_ranks(psi, dims)
    for got, want in zip(weights.lambdas, schmidt_cut_weights(psi, dims)):
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("memory, refused", [(24575, True), (24576, False)])
def test_operator_to_mps_refuses_a_peel_larger_than_memory(memory, refused, monkeypatch):
    # cloner:4 is 1 -> 7, 4096 bytes; the peel counts it and its working
    # copies as 12 matrices, 49152 bytes at 2 bytes a page
    u = gisin_massar_cloner(4)
    sizes = {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 2}
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
    if refused:
        with pytest.raises(ContractViolationError, match="canonicalization: .* x 12 needs 49152 bytes"):
            operator_to_mps(u)
    else:
        op, _ = operator_to_mps(u)
        assert np.allclose(contract_operator(op), u.matrix, atol=1e-12)


@pytest.mark.parametrize("n", [8, 9])
def test_tall_cuts_of_a_product_match_the_cut_oracle(n):
    u, fused = haar_product(n, seed=n)
    assert_cuts_match_the_oracle(operator_to_mps(held_dense(u)), fused, [4] * n)


@pytest.mark.parametrize("entangled", [True, False], ids=["generic", "split at cut 4"])
def test_tall_cuts_of_a_mixed_dimension_state_match_the_cut_oracle(entangled):
    dims = (3, 5, 7, 4, 4, 4, 4, 4)
    rng = np.random.default_rng(35)
    if entangled:
        psi = rng.standard_normal(math.prod(dims)) + 1j * rng.standard_normal(math.prod(dims))
    else:
        psi = np.kron(
            rng.standard_normal(math.prod(dims[:4])), rng.standard_normal(math.prod(dims[4:]))
        )
    psi /= np.linalg.norm(psi)
    assert_cuts_match_the_oracle(state_to_mps(psi, dims), psi, dims)


def test_the_first_cut_of_a_product_is_factored_through_its_r(monkeypatch):
    # the 262144 x 4 first block reaches the SVD as its 4 x 4 R factor
    shapes = []
    svd = mps_module.svd

    def recorded(m, *args, **kwargs):
        shapes.append(m.shape)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(mps_module, "svd", recorded)
    operator_to_mps(held_dense(haar_product(10, seed=1)[0]))
    assert shapes[0] == (4, 4)


#: Operators whose canonical tensors are compared across ways of peeling.
GAUGE_SET = pytest.mark.parametrize(
    "build",
    [
        lambda: random_isometry(1, 10, 3),
        lambda: random_isometry(3, 8, 2),
        lambda: random_isometry(2, 9, 4),
        lambda: random_isometry(5, 10, 1),
        shor_encoder,
        lambda: gisin_massar_cloner(6),
        # the fused row of a 2x2 factor has |u00| = |u11|: guards the tie band
        lambda: held_dense(haar_product(10, seed=1)[0]),
    ],
    ids=["random:1,10,3", "random:3,8,2", "random:2,9,4", "random:5,10,1", "shor", "cloner:6",
         "product:10"],
)


@GAUGE_SET
def test_canonical_tensors_do_not_depend_on_how_a_cut_is_factored(build, monkeypatch):
    u = build()
    factored, _ = operator_to_mps(u)
    # every block read whole and handed to the SVD as it is
    monkeypatch.setattr(mps_module, "_QR_GATE", math.inf)
    whole, _ = operator_to_mps(u)
    assert factored.bond_dims == whole.bond_dims
    for a, b in zip(factored.tensors, whole.tensors):
        assert np.max(np.abs(a - b)) <= 1e-12


def assert_matches_the_fused_vector_peel(u):
    op, weights = operator_to_mps(u)
    tensors, lambdas, scale = operator_to_mps_regroup(u)
    assert op.bond_dims == tuple(t.shape[2] for t in tensors) + (1,)
    for got, want in zip(op.tensors, tensors):
        assert np.max(np.abs(got - want)) <= 1e-12
    for got, want in zip(weights.lambdas, lambdas):
        assert np.max(np.abs(got - want)) <= 1e-12
    assert op.norm == pytest.approx(scale, rel=1e-13)


@GAUGE_SET
def test_the_peel_matches_the_fused_vector_peel(build):
    assert_matches_the_fused_vector_peel(build())


@settings(max_examples=15, deadline=None)
@example(m=4, n=10, seed=0)
@given(n=st.integers(1, 10), m=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_the_peel_matches_the_fused_vector_peel_on_haar_isometries(m, n, seed):
    # m <= n <= 10, with at most 14 qubits in all to keep the oracle's SVDs short
    assert_matches_the_fused_vector_peel(random_isometry(min(m, n, 14 - n), n, seed))


@pytest.mark.parametrize("chunk_rows", [mps_module._CHUNK_ROWS, 2**3, 6])
def test_the_peel_reads_tall_blocks_in_chunks(chunk_rows, monkeypatch):
    # tall cuts from 16 rows on and QR blocks of 4 rows, read in chunks of
    # two QR blocks, of a QR block and a half, and in the default chunks
    monkeypatch.setattr(mps_module, "_CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(mps_module, "_QR_GATE", 2**4)
    monkeypatch.setattr(linalg, "_QR_ROWS", 2**2)
    assert_matches_the_fused_vector_peel(random_isometry(3, 8, 2))
    assert_matches_the_fused_vector_peel(held_dense(haar_product(8, seed=3)[0]))
    psi = random_state(10, 5)
    mps, _ = state_to_mps(psi)
    assert np.linalg.norm(contract_state(mps) - psi) <= 1e-12


@pytest.mark.parametrize(
    "build, bonds",
    [
        (lambda: ghz_isometry(16), (1,) + (2,) * 15 + (1,)),
        # generic: each cut's rank is the dimension of its smaller side
        (
            lambda: haar_isometry(1, 15, 4),
            (1, *(min(2 ** (k + 1), 2 ** (15 - k)) for k in range(1, 15)), 1),
        ),
    ],
    ids=["ghz:16", "haar 1->15"],
)
def test_the_peel_reads_blocks_above_the_default_chunk_in_chunks(build, bonds, monkeypatch):
    # their first cuts are taller than _CHUNK_ROWS; the reference is the
    # same peel with every block read as one matrix
    u = build()
    chunks, walked = mps_module._chunks, []

    def spy(block, cols):
        walked.append(block.size // cols)
        return chunks(block, cols)

    monkeypatch.setattr(mps_module, "_chunks", spy)
    chunked, chunked_weights = operator_to_mps(u)
    assert walked and min(walked) > mps_module._CHUNK_ROWS
    monkeypatch.setattr(mps_module, "_CHUNK_ROWS", math.inf)
    walked.clear()
    whole, whole_weights = operator_to_mps(u)
    assert not walked
    assert chunked.bond_dims == whole.bond_dims == bonds
    for a, b in zip(chunked.tensors, whole.tensors):
        assert np.max(np.abs(a - b)) <= 1e-12
    for a, b in zip(chunked_weights.lambdas, whole_weights.lambdas):
        assert np.max(np.abs(a - b)) <= 1e-12
    assert abs(chunked.norm - whole.norm) <= 1e-12


def test_svd_is_public_and_called_once_per_cut(monkeypatch):
    # a tracer wraps the names in __all__ wherever a package module binds
    # them, so every SVD of the peel must go through such a binding
    svd = linalg.svd
    assert "svd" in seqdecomp.__all__ and seqdecomp.svd is svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    for module in (seqdecomp, cli, formats, linalg, mps_module, oplib, sequencer):
        for name, value in list(vars(module).items()):
            if value is svd:
                monkeypatch.setattr(module, name, counted)
    u = shor_encoder()
    build_plan(u)
    assert len(calls) == u.n_out - 1
    calls.clear()
    sequentiality_test(u)
    assert len(calls) == u.n_out - 1


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_is_idempotent_up_to_gauge():
    mps, weights = state_to_mps(random_state(5, 7))
    again, weights2 = canonicalize(mps)
    assert gauge_residual(mps, weights, again, weights2) <= 1e-9


def test_canonicalize_refuses_a_one_site_zero_chain():
    # no cut to peel: the site itself is the rest, and its norm is 0
    with pytest.raises(ContractViolationError, match="chain contracts to the zero vector"):
        canonicalize(Mps((np.zeros((2, 1, 1)),)))


def test_canonicalize_swap_network_ghz():
    # worst-case redundant form of the 1->3 GHZ isometry, padded to bond 8
    u = ghz_isometry(3)
    redundant = gauge_inflate(swap_network_operator_mps(u), pad_to=8, seed=4)
    assert max(redundant.bond_dims) == 8
    assert np.max(np.abs(contract_operator(redundant) - u.matrix)) < 1e-10
    canonical, weights = canonicalize(redundant)
    assert canonical.bond_dims == (1, 2, 2, 1)
    assert canonical.bond_dims[1:-1] == operator_cut_ranks(u)
    assert check_canonical(canonical, weights).passed
    assert np.max(np.abs(contract_operator(canonical) - u.matrix)) < 1e-10


def test_canonicalize_rejects_zero_chain():
    t1 = np.zeros((2, 2, 1), dtype=complex)
    t2 = np.zeros((2, 1, 2), dtype=complex)
    t2[0, 0, 0] = 1.0
    with pytest.raises(ContractViolationError, match="zero"):
        canonicalize(Mps((t1, t2)))


def test_chain_shape_validation():
    good = np.zeros((2, 1, 1), dtype=complex)
    good[0, 0, 0] = 1.0
    with pytest.raises(ContractViolationError, match="bond"):
        Mps((np.zeros((2, 3, 1), dtype=complex), np.zeros((2, 1, 2), dtype=complex)))
    with pytest.raises(ContractViolationError, match="boundary"):
        Mps((np.zeros((2, 2, 2), dtype=complex),))
    assert Mps((good,)).bond_dims == (1, 1)


# ---------------------------------------------------------------------------
# check_canonical


def test_check_canonical_pipeline_random_state():
    mps, weights = state_to_mps(random_state(5, 13))
    report = check_canonical(mps, weights)
    assert report.passed
    assert report.left_normalization < 1e-12


def test_check_canonical_detects_scaled_tensor():
    mps, weights = state_to_mps(ghz_state(3))
    tensors = list(mps.tensors)
    tensors[1] = 2.0 * tensors[1]
    report = check_canonical(Mps(tuple(tensors)), weights)
    assert np.isclose(report.left_normalization, 3.0)  # |4*I - I|
    assert not report.passed


def test_check_canonical_single_site_zero_state():
    psi = np.array([1.0, 0.0], dtype=complex)
    mps, weights = state_to_mps(psi)
    report = check_canonical(mps, weights)
    assert report.left_normalization == 0.0
    assert report.weight_transport == 0.0
    assert report.weight_validity == 0.0


# ---------------------------------------------------------------------------
# gauge relations between canonical forms (the gauge_residual oracle)


def test_gauge_check_self():
    mps, weights = state_to_mps(random_state(4, 17))
    assert gauge_residual(mps, weights, mps, weights) < 1e-12


def test_gauge_check_two_canonicalization_paths():
    # same state reached directly and through a disguised, padded chain
    psi = random_state(6, 19)
    direct, w_direct = state_to_mps(psi)
    hidden = gauge_inflate(direct, pad_to=6, seed=23)
    recovered, w_recovered = canonicalize(hidden)
    assert np.linalg.norm(contract_state(recovered) - psi) < 1e-10
    spectra_gap = max(
        np.max(np.abs(a - b)) for a, b in zip(w_direct.lambdas, w_recovered.lambdas)
    )
    assert spectra_gap < 1e-10
    assert gauge_residual(direct, w_direct, recovered, w_recovered) <= 1e-8


def test_gauge_check_orthogonal_states_differ():
    psi = random_state(5, 29)
    rng = np.random.default_rng(31)
    phi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    phi -= (psi.conj() @ phi) * psi
    phi /= np.linalg.norm(phi)
    a, wa = state_to_mps(psi)
    b, wb = state_to_mps(phi)
    assert gauge_residual(a, wa, b, wb) > 1e-8


def test_gauge_check_bond_mismatch_is_immediate():
    a, wa = state_to_mps(ghz_state(3))
    product = np.zeros(8, dtype=complex)
    product[0] = 1.0
    b, wb = state_to_mps(product)
    assert gauge_residual(a, wa, b, wb) == math.inf


def test_gauge_check_degenerate_weights_commutant_freedom():
    # GHZ weights are doubly degenerate; any unitary mixing of the degenerate
    # block is a legal gauge, and the check must accept it.
    mps, weights = state_to_mps(ghz_state(4))
    rng = np.random.default_rng(37)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    v = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    tensors = list(mps.tensors)
    # rotate the bond between sites 2 and 3 by the commuting unitary v
    tensors[1] = np.einsum("ab,ibc->iac", v, tensors[1])
    tensors[2] = np.einsum("iab,bc->iac", tensors[2], v.conj().T)
    rotated = Mps(tuple(tensors), norm=mps.norm)
    report = check_canonical(rotated, weights)
    assert report.passed
    assert gauge_residual(mps, weights, rotated, weights) <= 1e-9


# ---------------------------------------------------------------------------
# direct_sum


def random_qubit_chain(rng, m_in, bonds):
    """Site tensors of a qubit chain on ``len(bonds) - 1`` sites, the first
    ``m_in`` carrying an input leg, each tensor scaled to unit norm."""
    sites = []
    for k, (lft, rgt) in enumerate(zip(bonds, bonds[1:])):
        shape = (4 if k < m_in else 2, rgt, lft)
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sites.append(t / np.linalg.norm(t))
    return sites


@settings(max_examples=60, deadline=None)
@example(n=1, m_in=0, interior=[], open_bonds=(1, 3), seed=0)  # one site: both rules
@example(n=3, m_in=1, interior=[(2, 3), (1, 2)], open_bonds=(1, 4), seed=1)  # a difference chain's shape
@given(
    n=st.integers(1, 6),
    m_in=st.integers(0, 6),
    interior=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=5, max_size=5),
    open_bonds=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_direct_sum_contracts_to_the_sum_of_its_chains(n, m_in, interior, open_bonds, seed):
    # two chains on the same n sites, m_in of them fused, with their own
    # interior bonds and open last bonds of sizes of their own
    rng = np.random.default_rng(seed)
    m_in = min(m_in, n)
    a = random_qubit_chain(rng, m_in, [1, *(x for x, _ in interior[: n - 1]), open_bonds[0]])
    b = random_qubit_chain(rng, m_in, [1, *(y for _, y in interior[: n - 1]), open_bonds[1]])
    total = mps_module.direct_sum(a, b)
    assert [t.shape[2] for t in total] == [1] + [x + y for x, y in interior[: n - 1]]
    assert total[-1].shape[1] == max(open_bonds)

    def contraction(sites):
        # every row, the open bond padded to the sum's
        rows = sequencer._rows(sites)
        return np.pad(rows, [(0, 0), (0, 0), (0, max(open_bonds) - rows.shape[2])])

    assert np.max(np.abs(contraction(total) - contraction(a) - contraction(b))) <= 1e-13
    with pytest.raises(ValueError):
        mps_module.direct_sum(a, b[:-1])


def _one_site(phys=2):
    return np.ones((phys, 1, 1), dtype=np.complex128)


#: Refusals of the chain types and of the canonical-form entries, each with
#: the message it raises.
_MPS_REFUSALS = {
    "no site": (lambda: Mps(()), "chain must contain at least one site"),
    "2-D tensor": (
        lambda: Mps([np.ones((2, 1))]),
        "site 1: tensor must have shape (phys, right, left), got (2, 1)",
    ),
    "non-finite tensor": (
        lambda: Mps([np.full((2, 1, 1), np.nan)]), "site 1: non-finite entries"
    ),
    "open right boundary": (
        lambda: Mps([np.ones((2, 2, 1))]), "right boundary bond dimension must be 1"
    ),
    "zero norm": (lambda: Mps([_one_site()], norm=0.0), "norm must be finite positive, got 0.0"),
    "m_in past the sites": (
        lambda: Mps([_one_site(4)], m_in=2), "m_in=2 out of range for 1 sites"
    ),
    "unfused input site": (
        lambda: Mps([_one_site(2)], m_in=1), "site 1: physical dimension 2, expected 4"
    ),
    "empty weights": (
        lambda: mps_module.CanonicalWeights([[]]), "cut 1: malformed weight vector"
    ),
    "non-finite state": (
        lambda: state_to_mps([np.inf, 0.0]), "state contains non-finite entries"
    ),
    "no site dimensions": (
        lambda: state_to_mps([1.0, 0.0], dims=[]), "invalid site dimensions ()"
    ),
    "dims of another length": (
        lambda: state_to_mps([1.0, 0.0, 0.0, 0.0], dims=[3]),
        "state length 4 does not match dims (3,)",
    ),
    "weights for other cuts": (
        lambda: check_canonical(
            Mps([_one_site(), _one_site()]), mps_module.CanonicalWeights([])
        ),
        "0 weight vectors for 1 interior cuts",
    ),
    "weights of another bond": (
        lambda: check_canonical(
            Mps([_one_site(), _one_site()]), mps_module.CanonicalWeights([[0.5, 0.5]])
        ),
        "cut 1: weight length 2 != bond 1",
    ),
}


@pytest.mark.parametrize("case", list(_MPS_REFUSALS))
def test_malformed_chains_states_and_weights_are_refused_by_name(case):
    build, message = _MPS_REFUSALS[case]
    with pytest.raises(ContractViolationError) as exc:
        build()
    assert str(exc.value) == message
