"""Property tests of the invariants promised for every input operator."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdecomp import (
    build_plan,
    gisin_massar_cloner,
    haar_unitary,
    product_unitary,
    random_isometry,
    sequentiality_test,
    shor_encoder,
    simulate,
    verify_plan,
)

from oracles import operator_cut_ranks

SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 6), seed=SEEDS)
def test_every_one_to_n_isometry_is_implementable(n, seed):
    u = random_isometry(1, n, seed)
    plan = build_plan(u)
    assert plan.report.implementable
    assert plan.ancilla_dim == max(plan.bond_dims)
    assert plan.bond_dims[1:-1] == operator_cut_ranks(u)
    assert verify_plan(plan, u).max_error <= 1e-10


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 4), seed=SEEDS)
def test_haar_random_square_unitaries_are_rejected(n, seed):
    report = sequentiality_test(random_isometry(n, n, seed))
    assert not report.implementable
    assert max(report.per_site_residuals) > 0.1


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["random", "product", "cloner", "shor"]),
    size=st.integers(2, 4),
    seed=SEEDS,
)
def test_simulation_matches_the_operator_within_the_verified_bound(kind, size, seed):
    # simulate runs one column through the chain, verify_plan all basis
    # columns as one batch; the batch's bound must cover the single column
    rng = np.random.default_rng(seed)
    if kind == "random":
        u = random_isometry(1, size + 1, seed)
    elif kind == "product":
        u = product_unitary([haar_unitary(2, rng) for _ in range(size)])
    elif kind == "cloner":
        u = gisin_massar_cloner(size)
    else:
        u = shor_encoder()
    plan = build_plan(u)
    z = rng.standard_normal(2**u.m_in) + 1j * rng.standard_normal(2**u.m_in)
    psi = z / np.linalg.norm(z)
    state, _ = simulate(plan, psi)
    bound = verify_plan(plan, u).operator_norm_bound
    assert np.linalg.norm(state - u.matrix @ psi) <= bound + 1e-12
