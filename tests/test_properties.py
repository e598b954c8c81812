"""Property tests of the invariants promised for every input operator."""

import io
import json
import math
from contextlib import redirect_stdout
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdecomp import (
    ContractViolationError,
    Isometry,
    Mps,
    SequentialPlan,
    build_plan,
    canonicalize,
    check_canonical,
    cnot,
    ghz_isometry,
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
from seqdecomp import cli, formats, linalg, mps, sequencer
from seqdecomp.linalg import ISOMETRY_TOL

from oracles import (
    check_canonical_loops,
    contract_state,
    corrupted,
    criterion_loops,
    gauge_inflate,
    gauge_residual,
    haar_columns_full,
    isometry_defect_less_eye,
    open_chain_rows_loops,
    operator_cut_ranks,
    schmidt_cut_ranks,
    schmidt_cut_weights,
    simulate_full_state,
    verify_plan_loops,
)

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
@given(n=st.integers(2, 5), data=st.data(), seed=SEEDS)
def test_a_cnot_between_local_layers_is_rejected(n, data, seed):
    # the paper's paradigm: one CNOT on sites (p, p + 1), dressed on both
    # sides by Haar single-qubit unitaries, entangles across cut p only
    p = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)

    def layer():
        return product_unitary([haar_unitary(2, rng) for _ in range(n)]).matrix

    gate = np.kron(np.kron(np.eye(2 ** (p - 1)), cnot().matrix), np.eye(2 ** (n - p - 1)))
    u = Isometry(n, n, layer() @ gate @ layer())
    report = sequentiality_test(u)
    assert not report.implementable
    assert max(report.per_site_residuals) > 0.5
    assert operator_cut_ranks(u) == tuple(2 if c == p else 1 for c in range(1, n))


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["random", "product", "cloner", "shor"]),
    size=st.integers(2, 4),
    seed=SEEDS,
)
def test_simulation_matches_the_operator_within_the_verified_bound(kind, size, seed):
    # simulate runs one column through the chain, verify_plan contracts it
    # with open input legs; the bound over all basis inputs must cover the
    # single column
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
    state = simulate(plan, psi)
    bound = verify_plan(plan, u).operator_norm_bound
    assert np.linalg.norm(state - u.matrix @ psi) <= bound + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["isometry", "product", "shor", "ghz", "cloner"]),
    data=st.data(),
    seed=SEEDS,
)
def test_the_growing_chain_agrees_with_the_full_state_reference(kind, data, seed):
    # verify_plan contracts the chain with open input legs and simulate pushes
    # one amplitude vector through it; the reference runs every completed
    # step on the full-size state, one identity column per basis input.
    # Haar columns in place of one block, the first included, leave a plan
    # that does not reproduce its operator
    rng = np.random.default_rng(seed)
    if kind == "isometry":
        u = random_isometry(1, data.draw(st.integers(1, 8), label="n"), seed)
    elif kind == "product":
        n = data.draw(st.integers(1, 6), label="factors")
        u = product_unitary([haar_unitary(2, rng) for _ in range(n)])
    elif kind == "shor":
        u = shor_encoder()
    elif kind == "ghz":
        u = ghz_isometry(data.draw(st.integers(2, 8), label="n"))
    else:
        u = gisin_massar_cloner(data.draw(st.integers(2, 4), label="n"))
    plan = build_plan(u)
    k = data.draw(st.none() | st.integers(0, plan.n_out - 1), label="replaced block")
    if k is not None:
        plan = corrupted(plan, k, rng)
    verification = verify_plan(plan, u)
    assert abs(verification.max_error - verify_plan_loops(plan, u)[0]) <= 1e-14
    z = rng.standard_normal(2**u.m_in) + 1j * rng.standard_normal(2**u.m_in)
    psi = z / np.linalg.norm(z)
    assert np.max(np.abs(simulate(plan, psi) - simulate_full_state(plan, psi)[0])) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 3), data=st.data(), seed=SEEDS)
def test_plans_that_read_several_inputs_at_bonds_above_1_match_the_references(m, data, seed):
    # the input sites consume 2 or 3 qubits from a state held at bonds
    # above 1, which no product plan does: bonds drawn from the last cut
    # back, at least 2 where orthonormal columns allow it (non-decreasing
    # over the input sites, b[k] <= 2 * b[k + 1] after them) and at most 8,
    # each block Haar columns on some of its rows and zero on the others
    n = data.draw(st.integers(m + 1, 6), label="n")
    bonds = [1]
    for k in reversed(range(1, n)):
        most = min(8, bonds[0] if k < m else 2 * bonds[0])
        bonds.insert(0, data.draw(st.integers(min(2, most), most), label=f"b[{k}]"))
    bonds.insert(0, 1)
    rng = np.random.default_rng(seed)
    blocks = []
    for k in range(n):
        rows, cols = 2 * bonds[k + 1], (2 if k < m else 1) * bonds[k]
        kept = np.sort(rng.choice(rows, size=rng.integers(cols, rows + 1), replace=False))
        q = np.zeros((rows, cols), dtype=np.complex128)
        q[kept] = haar_columns_full(kept.size, cols, rng)
        blocks.append(q)
    plan = SequentialPlan(max(bonds), m, blocks, bonds)
    z = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
    psi = z / np.linalg.norm(z)
    assert np.max(np.abs(simulate(plan, psi) - simulate_full_state(plan, psi)[0])) <= 1e-14
    # the runner's rows, the inputs put in site order, and the plan's operator
    tensors = list(sequencer._plan_chain(plan))
    rows = sequencer._rows(tensors).reshape([2] * m + [2**n])
    rows = rows.transpose([*range(m - 1, -1, -1), m]).reshape(2**m, 2**n)
    matrix = open_chain_rows_loops(tensors)[..., 0]
    assert np.max(np.abs(rows.T - matrix)) <= 1e-14
    u = Isometry(m, n, matrix)
    # the criterion accepts the operator, at canonical bonds no larger than
    # the drawn ones, and its own plan reproduces it
    report = sequentiality_test(u)
    assert report.implementable
    assert all(got <= drawn for got, drawn in zip(report.bond_dims, bonds, strict=True))
    assert verify_plan(build_plan(u), u).max_error <= 1e-12
    k = data.draw(st.integers(0, n - 1), label="replaced block")
    for checked in (plan, corrupted(plan, k, rng)):
        error = verify_plan(checked, u).max_error
        assert abs(error - verify_plan_loops(checked, u)[0]) <= 1e-14


def test_the_4_2_2_encoder_reads_two_inputs_at_ancilla_4():
    # the [[4,2,2]] code: |00> -> |0000> + |1111>, |01> -> |0011> + |1100>,
    # |10> -> |0101> + |1010>, |11> -> |0110> + |1001>, each normalized
    codewords = [(0b0000, 0b1111), (0b0011, 0b1100), (0b0101, 0b1010), (0b0110, 0b1001)]
    matrix = np.zeros((16, 4), dtype=np.complex128)
    for column, rows in enumerate(codewords):
        matrix[list(rows), column] = 1 / math.sqrt(2)
    u = Isometry(2, 4, matrix)
    report = sequentiality_test(u)
    assert report.implementable
    assert report.bond_dims == (1, 4, 4, 2, 1) and report.ancilla_dim_if_yes == 4
    assert max(report.per_site_residuals) <= 1e-13
    plan = build_plan(u)
    assert plan.ancilla_dim == 4
    assert verify_plan(plan, u).max_error <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["shor", "ghz", "cloner", "random", "product"]),
    source=st.sampled_from(["built", "file", "corrupted"]),
    data=st.data(),
    seed=SEEDS,
)
def test_every_plan_decouples_in_the_full_state_reference(kind, source, data, seed):
    # a plan's chain closes at bond 1, so the ancilla returns to |0> on every
    # basis input, which the reference sees on the completed steps; no
    # library call measures that any more
    rng = np.random.default_rng(seed)
    if kind == "shor":
        u = shor_encoder()
    elif kind == "ghz":
        u = ghz_isometry(data.draw(st.integers(1, 8), label="n"))
    elif kind == "cloner":
        u = gisin_massar_cloner(data.draw(st.integers(1, 4), label="n"))
    elif kind == "random":
        u = random_isometry(1, data.draw(st.integers(1, 8), label="n"), seed)
    else:
        n = data.draw(st.integers(1, 6), label="factors")
        u = product_unitary([haar_unitary(2, rng) for _ in range(n)])
    plan = build_plan(u)
    if source == "file":
        doc = formats.plan_to_doc(plan, verify_plan(plan, u))
        plan = formats.doc_to_plan(formats.parse_document(formats.dumps(doc), "plan"))
    elif source == "corrupted":
        plan = corrupted(plan, data.draw(st.integers(0, plan.n_out - 1), label="block"), rng)
    assert verify_plan_loops(plan, u)[1] <= 1e-14


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


def _chain_sum(a, b):
    """A chain on the sites of ``a`` and ``b`` contracting to the sum of
    theirs: their ``mps.direct_sum``, each norm on its first site."""
    ta = [a.norm * a.tensors[0], *a.tensors[1:]]
    tb = [b.norm * b.tensors[0], *b.tensors[1:]]
    return Mps(tuple(mps.direct_sum(ta, tb)), m_in=a.m_in)


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
    assert gauge_residual(direct, weights, recovered, recovered_weights) <= 1e-8


@settings(max_examples=50, deadline=None)
@given(
    data=st.data(),
    m_in=st.integers(0, 2),
    max_bond=st.integers(1, 3),
    truncate=st.booleans(),
    seed=SEEDS,
)
def test_canonicalize_recovers_the_schmidt_spectra_of_a_hidden_chain(
    data, m_in, max_bond, truncate, seed
):
    # an operator chain fuses input and output legs on its first m_in sites.
    # A generic tail 1e-12 below the chain, summed into it, lies below the
    # rank cutoff, so the peel drops it: each cut changes the weights of the
    # cuts peeled before it to second order in the dropped norm, well
    # within 1e-12
    if m_in:
        n = data.draw(st.integers(m_in, 4))
        dims = [4] * m_in + [2] * (n - m_in)
    else:
        dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    rng = np.random.default_rng(seed)
    psi = _state_on_sites(dims, max_bond, rng)
    direct, weights = state_to_mps(psi, dims)
    chain = Mps(direct.tensors, norm=direct.norm, m_in=m_in)
    hidden = chain
    if truncate:
        tail, _ = state_to_mps(_state_on_sites(dims, None, rng), dims)
        hidden = _chain_sum(chain, Mps(tail.tensors, norm=1e-12 * tail.norm, m_in=m_in))
        psi = contract_state(hidden)
    hidden = gauge_inflate(hidden, pad_to=hidden.max_bond_dim + 1, seed=seed)
    recovered, recovered_weights = canonicalize(hidden)
    assert recovered.m_in == m_in
    assert recovered.physical_dims == tuple(dims)
    contraction = contract_state(recovered)
    assert np.linalg.norm(contraction - psi) <= (1e-11 if truncate else 1e-12)
    assert recovered.bond_dims[1:-1] == schmidt_cut_ranks(contraction, dims)
    assert recovered.bond_dims[1:-1] == schmidt_cut_ranks(psi, dims)
    oracle = schmidt_cut_weights(contraction, dims)
    for lam, want in zip(recovered_weights.lambdas, oracle, strict=True):
        assert np.max(np.abs(lam - want)) <= 1e-12
    assert check_canonical(recovered, recovered_weights).passed
    if not truncate:
        assert gauge_residual(chain, weights, recovered, recovered_weights) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(0, 3), seed=SEEDS)
@example(n=6, m=3, seed=0)
def test_the_chain_rows_match_the_dense_oracle(n, m, seed):
    # a chain with its first m sites carrying inputs, bonds of 2 or 3 and
    # an open last bond
    m = min(m, n)
    rng = np.random.default_rng(seed)
    bonds = [1] + [int(rng.integers(2, 4)) for _ in range(n)]
    shapes = [(4 if k < m else 2, bonds[k + 1], bonds[k]) for k in range(n)]
    tensors = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    norm = float(rng.uniform(0.5, 2.0))
    rows = sequencer._rows(tensors, norm)
    assert rows.shape == (2**m, 2**n, bonds[-1])
    # the rows match the dense contraction once the inputs are put in site order
    rows = rows.reshape([2] * m + [2**n, bonds[-1]])
    rows = rows.transpose([*range(m - 1, -1, -1), m, m + 1]).reshape(2**m, 2**n, -1)
    want = open_chain_rows_loops(tensors, norm).transpose(1, 0, 2)
    assert np.max(np.abs(rows - want)) <= 1e-12 * np.max(np.abs(want))


def _cli_doc(command, u):
    """Exit code and JSON output of ``seqdecomp <command>`` on the operator ``u``."""
    out = io.StringIO()
    with mock.patch.object(cli, "load_operator", lambda *args: u), redirect_stdout(out):
        code = cli.main([command, "product"])
    return code, json.loads(out.getvalue())


#: Distance from ISOMETRY_TOL within which rounding may decide a verdict.
VERDICT_BAND = 1e-13


@settings(max_examples=30, deadline=None)
@given(
    seed=SEEDS,
    deltas=st.lists(
        st.one_of(st.just(0.0), st.floats(-5e-11, 5e-11)), min_size=1, max_size=10
    ),
)
@example(seed=3, deltas=[0.0] * 10)
@example(seed=4, deltas=[4e-11] * 3)
def test_a_product_chain_agrees_with_its_dense_matrix(seed, deltas):
    # Haar factors scaled by (1 + delta): the chain path decides, plans and
    # verifies from the factors, the dense path from their Kronecker product
    rng = np.random.default_rng(seed)
    factors = [(1.0 + d) * haar_unitary(2, rng) for d in deltas]
    n = len(factors)
    lows, highs = zip(*(np.linalg.eigvalsh(f.conj().T @ f) for f in factors))
    residual = max(math.prod(highs) - 1.0, 1.0 - math.prod(lows))
    kron = factors[0]
    for f in factors[1:]:
        kron = np.kron(kron, f)
    built = []
    for make in (lambda: product_unitary(factors), lambda: Isometry(n, n, kron)):
        try:
            built.append(make())
        except ContractViolationError as exc:
            built.append(str(exc))
    chain, dense = built
    if isinstance(chain, str) and chain.startswith("factor"):
        return  # a factor refused on its own never reaches the product
    if abs(residual - ISOMETRY_TOL) <= VERDICT_BAND:
        return  # rounding decides
    if isinstance(chain, str) or isinstance(dense, str):
        # the same refusal, with residuals that agree to rounding
        prefix = "matrix is not an isometry: residual "
        assert chain.startswith(prefix) and dense.startswith(prefix)
        assert abs(float(chain[len(prefix):]) - float(dense[len(prefix):])) <= VERDICT_BAND
        return
    assert chain.chain is not None and dense.chain is None
    plans = [build_plan(u) for u in built]
    assert plans[0].bond_dims == plans[1].bond_dims == (1,) * (n + 1)
    for a, b in zip(plans[0].steps, plans[1].steps, strict=True):
        assert np.max(np.abs(a - b)) <= 1e-12
    # a plan is exactly unitary, so a scaled target's own defect shows as its error
    errors = [verify_plan(plan, u).max_error for plan, u in zip(plans, built)]
    assert abs(errors[0] - errors[1]) <= 1e-12 and errors[0] <= residual + 1e-12
    (check_code, check), (check_code_dense, check_dense) = (_cli_doc("check", u) for u in built)
    assert check_code == check_code_dense == 0
    residuals = [doc.pop("per_site_residuals") for doc in (check, check_dense)]
    assert np.allclose(*residuals, rtol=0, atol=1e-12)
    assert check == check_dense
    (code, decomposed), (code_dense, decomposed_dense) = (_cli_doc("decompose", u) for u in built)
    assert code == code_dense == 0
    for key in ("verification_error", "verification_error_bound", "decoupling_residual"):
        assert abs(decomposed.pop(key) - decomposed_dense.pop(key)) <= 1e-12
    assert decomposed == decomposed_dense
    (_, info), (_, info_dense) = (_cli_doc("info", u) for u in built)
    residuals = [doc.pop("canonical_residuals") for doc in (info, info_dense)]
    assert all(r <= 1e-12 for doc in residuals for r in doc.values())
    assert info == info_dense


def _canonical_operator(kind, data, seed):
    """The canonical chain and weights of a dense Haar isometry, of a
    product of Haar factors, or of a random operator chain with bonds up
    to 3 in any gauge."""
    rng = np.random.default_rng(seed)
    if kind == "product":
        n = data.draw(st.integers(1, 8))
        return mps.operator_to_mps(product_unitary([haar_unitary(2, rng) for _ in range(n)]))
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, n))
    if kind == "dense":
        return mps.operator_to_mps(random_isometry(m, n, seed))
    bonds = [1] + [int(rng.integers(1, 4)) for _ in range(n - 1)] + [1]
    shapes = [(4 if k < m else 2, bonds[k + 1], bonds[k]) for k in range(n)]
    tensors = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    return canonicalize(Mps(tuple(tensors), m_in=m))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["dense", "product", "chain"]), data=st.data(), seed=SEEDS)
def test_the_stacked_checks_match_their_site_by_site_loops(kind, data, seed):
    # check_canonical and the criterion take one stacked call per shape; the
    # loops they replaced take one per site and per physical value
    op, weights = _canonical_operator(kind, data, seed)
    report, want = check_canonical(op, weights), check_canonical_loops(op, weights)
    for field in ("left_normalization", "weight_transport", "weight_validity"):
        assert abs(getattr(report, field) - getattr(want, field)) <= 1e-14
    assert report.passed == want.passed
    blocks, verdict = sequencer._criterion(op)
    want = criterion_loops(op)
    assert len(blocks) == op.n_sites
    assert len(verdict.per_site_residuals) == len(want.per_site_residuals) == op.m_in
    for got, expected in zip(verdict.per_site_residuals, want.per_site_residuals):
        assert type(got) is float and abs(got - expected) <= 1e-14
    assert verdict.implementable == want.implementable
    assert verdict.bond_dims == want.bond_dims == op.bond_dims
    assert verdict.ancilla_dim_if_yes == want.ancilla_dim_if_yes


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(1, 6),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    scale=st.floats(0.5, 2.0),
    seed=SEEDS,
)
def test_a_stack_of_defects_is_the_bits_of_one_call_each(count, rows, cols, scale, seed):
    # one stacked product and eigvalsh: LAPACK still runs matrix by matrix
    rng = np.random.default_rng(seed)
    stack = scale * haar_unitary(max(rows, cols), rng)[:rows, :cols]
    stack = stack + 1e-9 * rng.standard_normal((count, rows, cols))
    defects = linalg.isometry_defect(stack)
    assert defects.shape == (count,)
    for q, defect in zip(stack, defects):
        assert np.float64(defect).tobytes() == np.float64(linalg.isometry_defect(q)).tobytes()
        assert np.float64(defect).tobytes() == np.float64(isometry_defect_less_eye(q)).tobytes()
