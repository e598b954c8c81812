"""Property tests of the invariants promised for every input operator."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdecomp import (
    build_plan,
    canonicalize,
    check_canonical,
    contract_state,
    gauge_check,
    gisin_massar_cloner,
    haar_unitary,
    product_unitary,
    random_isometry,
    sequentiality_test,
    shor_encoder,
    simulate,
    state_to_mps,
    verify_plan,
)

from oracles import gauge_inflate, operator_cut_ranks, schmidt_cut_ranks, schmidt_cut_weights

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


def _state_on_sites(dims, max_bond, rng):
    """A normalized state on sites of the given dimensions: generic when
    ``max_bond`` is None, else the contraction of a random chain with
    interior bonds of at most ``max_bond``."""

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if max_bond is None:
        psi = gaussian(math.prod(dims))
    else:
        bonds = [1] + [int(rng.integers(1, max_bond + 1)) for _ in dims[1:]] + [1]
        psi = np.ones((1, 1), dtype=complex)
        for k, d in enumerate(dims):
            psi = np.einsum("pa,aib->pib", psi, gaussian(bonds[k], d, bonds[k + 1]))
            psi = psi.reshape(-1, bonds[k + 1])
        psi = psi[:, 0]
    return psi / np.linalg.norm(psi)


@settings(max_examples=50, deadline=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    max_bond=st.one_of(st.none(), st.integers(1, 3)),
    seed=SEEDS,
)
def test_state_to_mps_on_mixed_site_dimensions(dims, max_bond, seed):
    rng = np.random.default_rng(seed)
    psi = _state_on_sites(dims, max_bond, rng)
    direct, weights = state_to_mps(psi, dims)
    assert direct.physical_dims == tuple(dims)
    assert direct.bond_dims[1:-1] == schmidt_cut_ranks(psi, dims)
    for lam, oracle in zip(weights.lambdas, schmidt_cut_weights(psi, dims), strict=True):
        assert np.max(np.abs(lam - oracle)) <= 1e-12
    assert np.linalg.norm(contract_state(direct) - psi) <= 1e-12
    assert check_canonical(direct, weights).passed
    hidden = gauge_inflate(direct, pad_to=direct.max_bond_dim + 1, seed=seed)
    recovered, recovered_weights = canonicalize(hidden)
    assert bool(gauge_check(direct, weights, recovered, recovered_weights))
