"""Tests for the sequentiality criterion, plan synthesis, and simulation."""

import math

import numpy as np
import pytest

from seqdecomp import (
    ContractViolationError,
    Isometry,
    NotImplementableError,
    SequentialPlan,
    build_plan,
    canonicalize,
    cnot,
    contract_operator,
    direct_sum_operator_mps,
    ghz_isometry,
    ghz_state,
    gisin_massar_cloner,
    haar_unitary,
    operator_schmidt_ranks,
    operator_to_mps,
    product_unitary,
    random_isometry,
    sequentiality_test,
    shor_encoder,
    simulate,
    state_to_mps,
    verify_plan,
)
from seqdecomp import sequencer
from seqdecomp.sequencer import _criterion

from oracles import (
    gauge_inflate,
    operator_cut_ranks,
    reduced_rho_loops,
    reshuffle_loops,
    step_columns_loops,
    swap_network_operator_mps,
)

SWAP = Isometry(2, 2, np.eye(4)[:, [0, 2, 1, 3]].astype(complex))


def identity_isometry():
    return Isometry(1, 1, np.eye(2, dtype=complex))


# ---------------------------------------------------------------------------
# sequentiality_test


def test_cnot_is_rejected():
    report = sequentiality_test(cnot())
    assert not report.implementable
    assert report.per_site_residuals[0] < 1e-12  # first input site always passes
    assert report.per_site_residuals[1] > 0.1  # genuine failures are order one
    assert report.bond_dims == (1, 2, 1)


def test_random_one_to_four_is_accepted():
    report = sequentiality_test(random_isometry(1, 4, seed=99))
    assert report.implementable
    assert max(report.per_site_residuals) < 1e-12


def test_single_qubit_product_is_accepted_with_trivial_ancilla():
    rng = np.random.default_rng(12)
    u = product_unitary([haar_unitary(2, rng), haar_unitary(2, rng)])
    report = sequentiality_test(u)
    assert report.implementable
    assert report.ancilla_dim_if_yes == 1


def test_verdict_is_gauge_independent():
    # rerun the criterion on a canonical form reached from a disguised chain
    for u in (cnot(), ghz_isometry(3), random_isometry(2, 3, seed=3)):
        direct, _ = operator_to_mps(u)
        hidden = gauge_inflate(direct, pad_to=direct.max_bond_dim + 2, seed=8)
        recovered, _ = canonicalize(hidden)
        a = _criterion(direct, 1e-8)[1].implementable
        b = _criterion(recovered, 1e-8)[1].implementable
        assert a == b == sequentiality_test(u).implementable


def test_defined_columns_and_residuals_match_the_raw_definitions():
    # random 2 -> 2 has a wide block at its second site
    cases = (shor_encoder(), cnot(), random_isometry(2, 4, seed=5), random_isometry(2, 2, seed=6))
    for u in cases:
        op, _ = operator_to_mps(u)
        blocks, report = _criterion(op, 1e-8)
        for k, (t, q) in enumerate(zip(op.tensors, blocks)):
            assert np.array_equal(q, step_columns_loops(t, k < op.m_in))
        for q, residual in zip(blocks, report.per_site_residuals):
            exact = np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]), 2)
            assert abs(residual - exact) < 1e-12


# ---------------------------------------------------------------------------
# build_plan


def test_identity_plan_is_trivial():
    plan = build_plan(identity_isometry())
    assert plan.ancilla_dim == 1
    assert len(plan.steps) == 1
    assert np.allclose(plan.steps[0], np.eye(2))


def test_shor_plan_shape():
    plan = build_plan(shor_encoder())
    assert plan.ancilla_dim == 4
    assert len(plan.steps) == 9
    assert all(step.shape == (8, 8) for step in plan.steps)
    assert plan.bond_dims == (1, 4, 4, 2, 4, 4, 2, 2, 2, 1)


def test_cloner_plans_meet_the_two_n_bound():
    for n in (2, 3):
        plan = build_plan(gisin_massar_cloner(n))
        assert plan.ancilla_dim <= 2 * n


def test_build_plan_rejects_cnot_with_report():
    with pytest.raises(NotImplementableError) as excinfo:
        build_plan(cnot())
    assert excinfo.value.report.per_site_residuals[1] > 0.1


def test_plan_steps_are_unitary():
    plan = build_plan(random_isometry(1, 5, seed=7))
    side = 2 * plan.ancilla_dim
    for step in plan.steps:
        assert np.linalg.norm(step.conj().T @ step - np.eye(side), 2) < 1e-10


def test_plan_validation_rejects_non_unitary_step():
    plan = build_plan(identity_isometry())
    with pytest.raises(ContractViolationError, match="unitary"):
        SequentialPlan(1, 1, (np.ones((2, 2), dtype=complex),), plan.bond_dims)


# ---------------------------------------------------------------------------
# simulate


def test_identity_plan_simulation():
    plan = build_plan(identity_isometry())
    state, residual = simulate(plan, np.array([0.0, 1.0]))
    assert np.allclose(state, [0.0, 1.0])
    assert residual == 0.0


def test_shor_plan_on_plus_state():
    plan = build_plan(shor_encoder())
    state, residual = simulate(plan, np.array([1.0, 1.0]) / math.sqrt(2.0))
    gp, gm = ghz_state(3, +1), ghz_state(3, -1)
    target = (
        np.kron(np.kron(gp, gp), gp) + np.kron(np.kron(gm, gm), gm)
    ) / math.sqrt(2.0)
    assert residual < 1e-10
    assert np.linalg.norm(state - target) < 1e-10


def test_cloner_plan_reduced_state():
    plan = build_plan(gisin_massar_cloner(2))
    state, residual = simulate(plan, np.array([1.0, 0.0]))
    assert residual < 1e-10
    for site in range(2):  # both clones
        rho = reduced_rho_loops(state, 3, site)
        assert np.allclose(rho, np.diag([5.0 / 6.0, 1.0 / 6.0]), atol=1e-10)


def test_simulate_validates_input():
    plan = build_plan(ghz_isometry(2))
    with pytest.raises(ContractViolationError, match="amplitudes"):
        simulate(plan, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ContractViolationError, match="normalized"):
        simulate(plan, np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# verify_plan


def test_verify_shor_plan():
    u = shor_encoder()
    verification = verify_plan(build_plan(u), u)
    assert verification.max_error < 1e-10
    assert verification.max_decoupling_residual < 1e-10
    assert verification.operator_norm_bound < 1e-9


def test_verify_detects_corrupted_step():
    u = shor_encoder()
    plan = build_plan(u)
    steps = list(plan.steps)
    steps[4] = np.eye(8, dtype=complex)
    corrupted = SequentialPlan(plan.ancilla_dim, plan.m_in, tuple(steps), plan.bond_dims)
    assert verify_plan(corrupted, u).max_error >= 0.5


def test_verify_identity_plan_is_exact():
    u = identity_isometry()
    assert verify_plan(build_plan(u), u).max_error == 0.0


def test_verify_runs_all_basis_inputs_as_one_batch(monkeypatch):
    rng = np.random.default_rng(18)
    u = product_unitary([haar_unitary(2, rng) for _ in range(3)])
    plan = build_plan(u)
    run_chain = sequencer._run_chain
    calls = []

    def counted(plan, inputs):
        calls.append(inputs.shape)
        return run_chain(plan, inputs)

    monkeypatch.setattr(sequencer, "_run_chain", counted)
    assert verify_plan(plan, u).max_error < 1e-12
    assert calls == [(8, 8)]


def test_verify_rejects_mismatched_operator():
    plan = build_plan(ghz_isometry(3))
    with pytest.raises(ContractViolationError):
        verify_plan(plan, ghz_isometry(4))


# ---------------------------------------------------------------------------
# direct-sum construction


def test_direct_sum_trivial_product_branches():
    zero = np.zeros(4, dtype=complex)
    one = zero.copy()
    zero[0b00] = 1.0
    one[0b11] = 1.0
    u0, _ = state_to_mps(zero)
    u1, _ = state_to_mps(one)
    op = direct_sum_operator_mps(u0, u1)
    assert op.bond_dims == (1, 2, 1)
    expected = np.stack([zero, one], axis=1)
    assert np.allclose(contract_operator(op), expected, atol=1e-12)


def test_direct_sum_shor_matches_canonical_ancilla():
    u = shor_encoder()
    u0, _ = state_to_mps(u.matrix[:, 0])
    u1, _ = state_to_mps(u.matrix[:, 1])
    assert u0.max_bond_dim == u1.max_bond_dim == 2
    op = direct_sum_operator_mps(u0, u1)
    assert np.max(np.abs(contract_operator(op) - u.matrix)) < 1e-10
    assert max(op.bond_dims) == 4
    canonical, _ = canonicalize(op)
    assert canonical.max_bond_dim == 4  # here the bound is tight


def test_direct_sum_ghz_bound_is_not_tight():
    u = ghz_isometry(3)
    u0, _ = state_to_mps(u.matrix[:, 0])
    u1, _ = state_to_mps(u.matrix[:, 1])
    op = direct_sum_operator_mps(u0, u1)
    assert max(op.bond_dims) == 4
    canonical, _ = canonicalize(op)
    assert canonical.max_bond_dim == 2  # canonicalization halves it
    assert np.max(np.abs(contract_operator(canonical) - u.matrix)) < 1e-10


def test_direct_sum_rejects_mismatched_chains():
    a, _ = state_to_mps(ghz_state(3))
    b, _ = state_to_mps(ghz_state(4))
    with pytest.raises(ContractViolationError):
        direct_sum_operator_mps(a, b)


# ---------------------------------------------------------------------------
# operator Schmidt ranks


def test_schmidt_ranks_cnot_product_swap():
    assert operator_schmidt_ranks(cnot()) == (2,)
    rng = np.random.default_rng(15)
    u3 = product_unitary([haar_unitary(2, rng) for _ in range(3)])
    assert operator_schmidt_ranks(u3) == (1, 1)
    assert operator_schmidt_ranks(SWAP) == (4,)


def test_schmidt_ranks_match_brute_force_reshuffle():
    rng = np.random.default_rng(16)
    u = Isometry(3, 3, haar_unitary(8, rng))
    for cut in (1, 2):
        brute = reshuffle_loops(u.matrix, 3, cut)
        s = np.linalg.svd(brute, compute_uv=False)
        rank = int(np.sum(s > 1e-10 * s[0]))
        assert operator_schmidt_ranks(u)[cut - 1] == rank


def test_schmidt_ranks_reject_non_square():
    with pytest.raises(ContractViolationError):
        operator_schmidt_ranks(ghz_isometry(3))


# ---------------------------------------------------------------------------
# cross-cutting properties


def test_soundness_plans_reproduce_their_operators():
    cases = [
        identity_isometry(),
        ghz_isometry(2),
        ghz_isometry(4),
        shor_encoder(),
        gisin_massar_cloner(2),
        gisin_massar_cloner(3),
    ] + [random_isometry(1, n, seed=100 + n) for n in (2, 3, 4, 5)]
    for u in cases:
        plan = build_plan(u)
        verification = verify_plan(plan, u)
        assert verification.max_error < 1e-9
        assert verification.max_decoupling_residual < 1e-10


def test_verdict_equals_rank_one_witness_on_square_unitaries():
    cz = Isometry(2, 2, np.diag([1, 1, 1, -1]).astype(complex))
    rng = np.random.default_rng(17)
    cases = [cnot(), SWAP, cz]
    cases += [product_unitary([haar_unitary(2, rng) for _ in range(2)])]
    cases += [random_isometry(2, 2, seed=s) for s in (1, 2)]
    cases += [random_isometry(3, 3, seed=s) for s in (3, 4)]
    for u in cases:
        product_like = all(r == 1 for r in operator_schmidt_ranks(u))
        assert sequentiality_test(u).implementable == product_like


def test_optimality_ancilla_equals_oracle_ranks():
    cases = [
        shor_encoder(),
        ghz_isometry(3),
        gisin_massar_cloner(2),
        random_isometry(1, 4, seed=201),
        random_isometry(2, 4, seed=202),
    ]
    for u in cases:
        op, _ = operator_to_mps(u)
        oracle = operator_cut_ranks(u)
        assert op.bond_dims[1:-1] == oracle
        report = sequentiality_test(u)
        assert report.ancilla_dim_if_yes == max(max(oracle), 1)
        if report.implementable:
            assert build_plan(u).ancilla_dim == report.ancilla_dim_if_yes


def test_swap_network_form_is_valid_but_wasteful():
    u = random_isometry(1, 3, seed=55)
    redundant = swap_network_operator_mps(u)
    assert max(redundant.bond_dims) == 4
    assert np.max(np.abs(contract_operator(redundant) - u.matrix)) < 1e-12
    canonical, _ = canonicalize(redundant)
    assert canonical.bond_dims[1:-1] == operator_cut_ranks(u)
