"""Tests for the sequentiality criterion, plan synthesis, and simulation."""

import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdecomp import (
    ContractViolationError,
    Isometry,
    Mps,
    NotImplementableError,
    SequentialPlan,
    build_plan,
    canonicalize,
    check_canonical,
    cnot,
    contract_operator,
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
from seqdecomp import formats, mps, sequencer
from seqdecomp.sequencer import _criterion, _defined_columns

from oracles import (
    corrupted,
    eager_plan_steps,
    gauge_inflate,
    operator_cut_ranks,
    reduced_rho_loops,
    reshuffle_loops,
    step_columns_loops,
    swap_network_operator_mps,
    verify_plan_loops,
    verify_plan_one_shot,
)

SWAP = Isometry(2, 2, np.eye(4)[:, [0, 2, 1, 3]].astype(complex))


def identity_isometry():
    return Isometry(1, 1, np.eye(2, dtype=complex))


def haar_product(n, seed):
    rng = np.random.default_rng(seed)
    return product_unitary([haar_unitary(2, rng) for _ in range(n)])


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
        a = _criterion(direct).implementable
        b = _criterion(recovered).implementable
        assert a == b == sequentiality_test(u).implementable


def test_defined_columns_and_residuals_match_the_raw_definitions():
    # random 2 -> 2 has a wide block at its second site
    cases = (shor_encoder(), cnot(), random_isometry(2, 4, seed=5), random_isometry(2, 2, seed=6))
    for u in cases:
        op, _ = operator_to_mps(u)
        report = _criterion(op)
        blocks = [_defined_columns(t, k < op.m_in) for k, t in enumerate(op.tensors)]
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
    # at ancilla 1 the block of a one-qubit plan is its whole step
    plan = build_plan(identity_isometry())
    with pytest.raises(ContractViolationError, match=r"blocks\[0\]: columns are not orthonormal"):
        SequentialPlan(1, 1, (np.ones((2, 2), dtype=complex),), plan.bond_dims)
    with pytest.raises(ContractViolationError, match=r"blocks\[0\]: shape \(2, 1\), expected \(2, 2\)"):
        SequentialPlan(1, 1, (np.eye(2, 1, dtype=complex),), plan.bond_dims)
    with pytest.raises(ContractViolationError, match="not orthonormal: residual nan"):
        SequentialPlan(1, 1, (np.full((2, 2), np.nan, dtype=complex),), plan.bond_dims)


# ---------------------------------------------------------------------------
# plans held as their blocks


def plan_operator(kind, n, seed):
    """shor, ghz:n, cloner:n, a Haar 1 -> n or a product of n Haar factors."""
    if kind == "shor":
        return shor_encoder()
    if kind == "ghz":
        return ghz_isometry(n)
    if kind == "cloner":
        return gisin_massar_cloner(n)
    if kind == "random":
        return random_isometry(1, n, seed)
    return haar_product(n, seed)


PLAN_OPERATORS = st.one_of(
    st.tuples(st.just("shor"), st.just(9), st.just(0)),
    st.tuples(st.just("ghz"), st.integers(1, 8), st.just(0)),
    st.tuples(st.just("cloner"), st.integers(1, 5), st.just(0)),
    st.tuples(st.just("random"), st.integers(1, 9), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("product"), st.integers(1, 8), st.integers(0, 2**32 - 1)),
)


@settings(max_examples=40, deadline=None)
@example(case=("random", 9, 0))
@given(case=PLAN_OPERATORS)
def test_a_plan_is_held_as_its_blocks_and_completes_the_eager_steps(case):
    u = plan_operator(*case)
    plan = build_plan(u)
    op = operator_to_mps(u)[0]
    blocks = [_defined_columns(t, k < op.m_in) for k, t in enumerate(op.tensors)]
    assert [q.tobytes() for q in plan.blocks] == [q.tobytes() for q in blocks]
    doc = formats.plan_to_doc(plan, verify_plan(plan, u))
    back = formats.doc_to_plan(formats.parse_document(formats.dumps(doc), "plan"))
    assert (back.ancilla_dim, back.m_in, back.bond_dims) == (plan.ancilla_dim, plan.m_in, plan.bond_dims)
    assert [q.tobytes() for q in back.blocks] == [q.tobytes() for q in plan.blocks]
    eager = eager_plan_steps(u)
    assert [step.tobytes() for step in plan.steps] == [step.tobytes() for step in eager]
    assert [step.tobytes() for step in back.steps] == [step.tobytes() for step in eager]
    assert all(not step.flags.writeable for step in plan.steps + plan.blocks)


# ---------------------------------------------------------------------------
# simulate


def test_identity_plan_simulation():
    plan = build_plan(identity_isometry())
    state = simulate(plan, np.array([0.0, 1.0]))
    assert np.allclose(state, [0.0, 1.0])


def test_shor_plan_on_plus_state():
    plan = build_plan(shor_encoder())
    state = simulate(plan, np.array([1.0, 1.0]) / math.sqrt(2.0))
    gp, gm = ghz_state(3, +1), ghz_state(3, -1)
    target = (
        np.kron(np.kron(gp, gp), gp) + np.kron(np.kron(gm, gm), gm)
    ) / math.sqrt(2.0)
    assert np.linalg.norm(state - target) < 1e-10


def test_cloner_plan_reduced_state():
    plan = build_plan(gisin_massar_cloner(2))
    state = simulate(plan, np.array([1.0, 0.0]))
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
    assert verification.operator_norm_bound < 1e-9


def test_verify_detects_corrupted_step():
    u = shor_encoder()
    plan = corrupted(build_plan(u), 4, np.random.default_rng(4))
    assert verify_plan(plan, u).max_error >= 0.5


def test_verify_identity_plan_is_exact():
    u = identity_isometry()
    assert verify_plan(build_plan(u), u).max_error == 0.0


def held_as_chain(u):
    """``u`` held as its canonical chain, like a ``product``: verification
    then takes the sweep of the difference chain."""
    chain = mps.operator_to_mps(u)[0]
    return Isometry._from_chain(chain, 0.0, lambda: np.array(u.matrix))


def test_verify_of_a_chain_target_walks_no_rows(monkeypatch):
    # a 10-factor product under 1 MiB of memory, a sixteenth of its dense
    # matrix: the sweep needs 0.40 MB, and forms no row of either operator
    u = haar_product(10, seed=18)
    plan = build_plan(u)

    def refuse(*args):
        raise AssertionError("a row of the operator was contracted")

    monkeypatch.setattr(sequencer, "_rows", refuse)
    sizes = {"SC_PHYS_PAGES": 2**20, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
    assert verify_plan(plan, u).max_error <= 1e-14
    assert "matrix" not in vars(u)


def never_formed():
    raise AssertionError("the operator's matrix was formed")


@pytest.mark.parametrize(
    "make",
    [
        lambda: gauge_inflate(operator_to_mps(shor_encoder())[0], pad_to=6, seed=31),
        lambda: operator_to_mps(gisin_massar_cloner(3))[0],
        lambda: haar_product(4, seed=32).chain,
    ],
    ids=["shor, inflated", "cloner:3", "product:4"],
)
def test_an_operator_held_as_a_chain_is_never_formed(make):
    # every entry point reads the chain of an operator held as one, the
    # redundant chain of a gauge-inflated shor encoder included
    chain = make()
    u = Isometry._from_chain(chain, 0.0, never_formed)
    op, weights = operator_to_mps(u)
    assert check_canonical(op, weights).passed
    report = sequentiality_test(u)
    assert report.implementable and report.bond_dims == op.bond_dims
    plan = build_plan(u)
    assert plan.bond_dims == op.bond_dims
    assert verify_plan(plan, u).max_error <= 1e-12
    if u.is_unitary:
        assert operator_schmidt_ranks(u) == op.bond_dims[1:-1]
    assert "matrix" not in vars(u)
    # the plan also matches the operator's dense contraction
    dense = Isometry(u.m_in, u.n_out, contract_operator(chain))
    assert verify_plan(plan, dense).max_error <= 1e-12


@pytest.mark.parametrize("memory, refused", [(3583, True), (3584, False)])
def test_verify_of_a_chain_operator_counts_its_sweep(memory, refused, monkeypatch):
    # a 3-factor product and its ancilla-1 plan make a difference chain of
    # bond 2 whose sites hold 8 + 16 + 8 entries; the sweep counts 3 arrays
    # of 2 * 2 x 2 entries for each of 8 inputs: 224 entries of 16 bytes,
    # where the dense matrix would be 1024 bytes
    rng = np.random.default_rng(19)
    u = product_unitary([haar_unitary(2, rng) for _ in range(3)])
    plan = build_plan(u)
    sizes = {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
    if refused:
        with pytest.raises(ContractViolationError, match="sweep of 8 inputs at bond 2 needs 3584 bytes"):
            verify_plan(plan, u)
    else:
        assert verify_plan(plan, u).max_error < 1e-12


@pytest.mark.parametrize("memory, refused", [(7295, True), (7296, False)])
def test_verify_refuses_a_working_set_larger_than_memory(memory, refused, monkeypatch):
    # a 3 -> 3 matrix is 1024 bytes and its ancilla-1 plan's blocks 2 x 2;
    # verification counts the target and the two states of one product, 3
    # matrices, the largest block twice, 128 bytes, and 4096 bytes more
    rng = np.random.default_rng(19)
    u = Isometry(3, 3, product_unitary([haar_unitary(2, rng) for _ in range(3)]).matrix)
    plan = build_plan(u)
    calls = []
    rows = sequencer._rows
    monkeypatch.setattr(sequencer, "_rows", lambda *a: calls.append(a) or rows(*a))
    sizes = {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
    if refused:
        with pytest.raises(ContractViolationError, match="x 3 and 4224 bytes needs 7296 bytes"):
            verify_plan(plan, u)
        assert calls == []
    else:
        assert verify_plan(plan, u).max_error < 1e-12
        assert calls


@pytest.mark.parametrize("spare", [-1, 0])
def test_verify_counts_its_blocks_not_the_ancilla(spare, monkeypatch):
    # cloner:8 is 1 -> 15, 2**20 bytes, with ancilla 16, and no state of its
    # chain is larger than the target; verification counts the target and
    # the two states of one product, 3 matrices, its largest block, 32 x 14
    # entries, twice, and 4096 bytes more, where the whole padded operator
    # made 25 matrices
    u = gisin_massar_cloner(8)
    plan = build_plan(u)
    need = 3 * 2**20 + 2 * 16 * 32 * 14 + 4096
    sizes = {"SC_PHYS_PAGES": need + spare, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
    if spare < 0:
        with pytest.raises(ContractViolationError, match=f"x 3 and 18432 bytes needs {need} bytes"):
            verify_plan(plan, u)
    else:
        assert verify_plan(plan, u).max_error < 1e-12


def test_verify_keeps_the_open_input_legs_in_order():
    # distinct Haar factors on sites 1 and 3: the plan passes, and exchanging
    # its first and last steps, which exchanges those factors, must fail
    rng = np.random.default_rng(33)
    u = product_unitary([haar_unitary(2, rng) for _ in range(3)])
    plan = build_plan(u)
    assert verify_plan(plan, u).max_error <= 1e-14
    swapped = SequentialPlan(plan.ancilla_dim, plan.m_in, plan.blocks[::-1], plan.bond_dims)
    max_error = verify_plan(swapped, u).max_error
    assert max_error >= 0.5
    assert max_error == pytest.approx(verify_plan_loops(swapped, u)[0], abs=1e-14)


def test_verify_detects_a_corrupted_middle_step_of_a_one_to_n_plan():
    u = random_isometry(1, 6, seed=12)
    plan = build_plan(u)
    assert verify_plan(plan, u).max_error <= 1e-14
    plan = corrupted(plan, 3, np.random.default_rng(12))
    verification = verify_plan(plan, u)
    assert verification.max_error >= 0.5
    assert verification.max_error == pytest.approx(verify_plan_loops(plan, u)[0], abs=1e-14)


def planned(u):
    return build_plan(u), u


def corrupted_shor_plan():
    # a last block that does not reproduce the state
    plan, u = planned(shor_encoder())
    return corrupted(plan, 8, np.random.default_rng(8)), u


@pytest.mark.parametrize(
    "make",
    [
        lambda: planned(shor_encoder()),
        lambda: planned(gisin_massar_cloner(4)),
        lambda: planned(random_isometry(1, 8, 0)),
        lambda: planned(haar_product(8, seed=8)),
        corrupted_shor_plan,
        # targets that verification once split into blocks of rows
        lambda: planned(gisin_massar_cloner(8)),
        lambda: planned(Isometry(8, 8, haar_product(8, seed=8).matrix)),
    ],
    ids=["shor", "cloner:4", "random:1,8", "product:8", "shor, corrupted", "cloner:8",
         "dense product:8"],
)
def test_verify_agrees_with_the_column_loop(make):
    plan, u = make()
    verification = verify_plan(plan, u)
    # a target held as a chain is compared through the difference chain,
    # whose sweep rounds apart from the column loop by up to 1.6e-15
    tol = 1e-15 if u.chain is None else 1e-14
    assert abs(verification.max_error - verify_plan_loops(plan, u)[0]) <= tol


@settings(max_examples=25, deadline=None)
@example(n=10, product=True, corrupt=3, seed=1)
@example(n=10, product=False, corrupt=12, seed=2)
@given(
    n=st.integers(1, 10),
    product=st.booleans(),
    corrupt=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_verify_matches_the_whole_operator_oracle(n, product, corrupt, seed):
    # m = n for a product of Haar factors, m = 1 for a Haar isometry; a draw
    # of corrupt < n replaces that block by Haar columns
    u = haar_product(n, seed) if product else random_isometry(1, n, seed)
    plan = build_plan(u)
    if corrupt < n:
        plan = corrupted(plan, corrupt, np.random.default_rng(seed))
    verification = verify_plan(plan, u)
    max_error = verify_plan_one_shot(plan, u)[0]
    assert abs(verification.max_error - max_error) <= 1e-14
    assert verification.operator_norm_bound == verification.max_error * math.sqrt(2**u.m_in)


@settings(max_examples=40, deadline=None)
@example(n=8, chain=False, corrupt=8, seed=8)
@example(n=6, chain=True, corrupt=3, seed=1)
@given(
    n=st.integers(1, 8),
    chain=st.booleans(),
    corrupt=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_sweep_matches_the_dense_oracle(n, chain, corrupt, seed):
    # a product of n Haar factors (ancilla 1), or a Haar 1 -> n isometry held
    # as its canonical chain (ancilla up to 2**(n // 2)); a draw of
    # corrupt < n replaces that block
    u = held_as_chain(random_isometry(1, n, seed)) if chain else haar_product(n, seed)
    plan = build_plan(u)
    if corrupt < n:
        plan = corrupted(plan, corrupt, np.random.default_rng(seed))
    verification = verify_plan(plan, u)
    max_error = verify_plan_one_shot(plan, u)[0]
    bound = max_error * math.sqrt(2**u.m_in)
    swept = (verification.max_error, verification.operator_norm_bound)
    for got, want in zip(swept, (max_error, bound)):
        if corrupt < n:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)
        else:
            assert abs(got - want) <= 1e-13


def test_verify_rejects_mismatched_operator():
    plan = build_plan(ghz_isometry(3))
    with pytest.raises(ContractViolationError):
        verify_plan(plan, ghz_isometry(4))


# ---------------------------------------------------------------------------
# direct-sum construction


def operator_from_images(u0, u1):
    """The 1 -> N operator chain (image of |0>)<0| + (image of |1>)<1|: the
    ``mps.direct_sum`` of the two image chains, each embedded at its input
    value j of the fused first site (fused index 2 * output + j)."""
    branches = []
    for j, image in enumerate((u0, u1)):
        first = np.zeros((4, *image.tensors[0].shape[1:]), dtype=complex)
        first[j::2] = image.norm * image.tensors[0]
        branches.append([first, *image.tensors[1:]])
    return Mps(tuple(mps.direct_sum(*branches)), m_in=1)


def test_direct_sum_trivial_product_branches():
    zero = np.zeros(4, dtype=complex)
    one = zero.copy()
    zero[0b00] = 1.0
    one[0b11] = 1.0
    u0, _ = state_to_mps(zero)
    u1, _ = state_to_mps(one)
    op = operator_from_images(u0, u1)
    assert op.bond_dims == (1, 2, 1)
    expected = np.stack([zero, one], axis=1)
    assert np.allclose(contract_operator(op), expected, atol=1e-12)


def test_direct_sum_shor_matches_canonical_ancilla():
    u = shor_encoder()
    u0, _ = state_to_mps(u.matrix[:, 0])
    u1, _ = state_to_mps(u.matrix[:, 1])
    assert u0.max_bond_dim == u1.max_bond_dim == 2
    op = operator_from_images(u0, u1)
    assert np.max(np.abs(contract_operator(op) - u.matrix)) < 1e-10
    assert max(op.bond_dims) == 4
    canonical, _ = canonicalize(op)
    assert canonical.max_bond_dim == 4  # here the bound is tight


def test_direct_sum_ghz_bound_is_not_tight():
    u = ghz_isometry(3)
    u0, _ = state_to_mps(u.matrix[:, 0])
    u1, _ = state_to_mps(u.matrix[:, 1])
    op = operator_from_images(u0, u1)
    assert max(op.bond_dims) == 4
    canonical, _ = canonicalize(op)
    assert canonical.max_bond_dim == 2  # canonicalization halves it
    assert np.max(np.abs(contract_operator(canonical) - u.matrix)) < 1e-10


def test_direct_sum_rejects_mismatched_chains():
    a, _ = state_to_mps(ghz_state(3))
    b, _ = state_to_mps(ghz_state(4))
    with pytest.raises(ValueError):
        operator_from_images(a, b)


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


def test_schmidt_ranks_match_the_independent_cut_oracle():
    rng = np.random.default_rng(18)
    cases = [cnot(), SWAP] + [random_isometry(n, n, seed=n) for n in range(2, 6)]
    cases += [product_unitary([haar_unitary(2, rng) for _ in range(k)]) for k in (2, 4, 6)]
    for u in cases:
        assert operator_schmidt_ranks(u) == operator_cut_ranks(u)


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


# ---------------------------------------------------------------------------
# equality of the public types


def array_holders():
    u = shor_encoder()
    plan = build_plan(u)
    op, weights = operator_to_mps(u)
    return {"Isometry": u, "SequentialPlan": plan, "Mps": op, "CanonicalWeights": weights}


@pytest.mark.parametrize("name", ["Isometry", "SequentialPlan", "Mps", "CanonicalWeights"])
def test_array_holding_types_compare_and_hash_by_identity(name):
    # two builds of the same operator hold equal arrays in distinct objects
    a, b = array_holders()[name], array_holders()[name]
    assert a == a and not (a == b) and a != b
    assert hash(a) == hash(a)
    assert {a, b, a} == {a, b} and len({a, b}) == 2
    assert a in {a} and b not in {a}


def test_scalar_types_keep_value_equality():
    u = shor_encoder()
    report = sequentiality_test(u)
    assert report == sequentiality_test(u) and hash(report) == hash(sequentiality_test(u))
    plan = build_plan(u)
    verification = verify_plan(plan, u)
    assert verification == verify_plan(plan, u)
    assert len({verification, verify_plan(plan, u)}) == 1
    op, weights = operator_to_mps(u)
    canonical = check_canonical(op, weights)
    assert canonical == check_canonical(op, weights)
    assert len({canonical, check_canonical(op, weights)}) == 1


@pytest.mark.parametrize(
    "state, message",
    [
        ([1.0, 0.0, 0.0], "input has 3 amplitudes, expected 2**1"),
        ([np.nan, 0.0], "input contains non-finite amplitudes"),
        ([1.0, 1.0], "input state is not normalized"),
    ],
)
def test_simulate_refuses_a_malformed_input_by_name(state, message):
    plan = build_plan(ghz_isometry(2))
    with pytest.raises(ContractViolationError) as exc:
        simulate(plan, state)
    assert str(exc.value) == message
