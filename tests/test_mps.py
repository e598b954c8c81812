"""Tests for matrix-product forms, canonicalization, and gauge checks."""

import numpy as np
import pytest

from seqdecomp import (
    ContractViolationError,
    Isometry,
    Mps,
    canonicalize,
    check_canonical,
    cnot,
    contract_operator,
    contract_state,
    gauge_check,
    ghz_isometry,
    ghz_state,
    operator_to_mps,
    random_isometry,
    shor_encoder,
    state_to_mps,
)
from seqdecomp import mps as mps_module

from oracles import (
    fused_vector_loops,
    gauge_inflate,
    operator_cut_ranks,
    schmidt_cut_ranks,
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


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_is_idempotent_up_to_gauge():
    mps, weights = state_to_mps(random_state(5, 7))
    again, weights2 = canonicalize(mps)
    assert bool(gauge_check(mps, weights, again, weights2, tol=1e-9))


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
    report = check_canonical(mps, weights, tol=1e-10)
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
# gauge_check


def test_gauge_check_self():
    mps, weights = state_to_mps(random_state(4, 17))
    verdict = gauge_check(mps, weights, mps, weights)
    assert bool(verdict)
    assert verdict.max_residual < 1e-12


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
    assert bool(gauge_check(direct, w_direct, recovered, w_recovered, tol=1e-8))


def test_gauge_check_orthogonal_states_differ():
    psi = random_state(5, 29)
    rng = np.random.default_rng(31)
    phi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    phi -= (psi.conj() @ phi) * psi
    phi /= np.linalg.norm(phi)
    a, wa = state_to_mps(psi)
    b, wb = state_to_mps(phi)
    verdict = gauge_check(a, wa, b, wb)
    assert not verdict
    assert verdict.reason != ""


def test_gauge_check_bond_mismatch_is_immediate():
    a, wa = state_to_mps(ghz_state(3))
    product = np.zeros(8, dtype=complex)
    product[0] = 1.0
    b, wb = state_to_mps(product)
    verdict = gauge_check(a, wa, b, wb)
    assert not verdict
    assert "bond" in verdict.reason


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
    assert bool(gauge_check(mps, weights, rotated, weights, tol=1e-9))
