"""Peak memory of canonicalization and verification, beside the operator.

Each figure is the ``tracemalloc`` peak of one call above what was held
before it, in units of the operator's dense matrix; numpy reports its
array allocations to ``tracemalloc``.  The bounds sit above the measured
peaks: the peel of a 10-factor product's dense matrix 0.38 matrices and
the product's verification 0.03, ``cloner:8``'s verification 2.00, two
states of its chain, none larger than the target, and the peels of a
Haar 1 -> 16, a Haar 8 -> 9 and ``cloner:8`` 4.7, 3.6 and 2.0, against
5.8, 5.3 and 3.0 when the peel regrouped the matrix into one fused vector
first.  A product held as its chain is planned and verified within
1.2 MiB, in bytes, where its dense matrix alone is 16 MiB.  A plan file
holds each step's block as base64 of its bytes, and is read within 3.1
times its blocks' bytes: the document's strings, about 4/3 of the blocks,
and the decoded blocks themselves, against 5.5 when each block was read
from JSON lists one at a time.  ``simulate`` holds 2.0 to 4.1 states of
the largest size its chain passes through, which its guard counts: its
input's complex copy, up to three states at an input site, and a copy of
a middle block, which in a Haar 1 -> 12 plan is as large as two states.

A whole request, through ``cli.main``: ``check`` and a rejected
``decompose`` of a Haar 5 -> 9 or 7 -> 7 hold 5.6 matrices, of which the
seeded draw takes 3.1 to 4.1 and the criterion one input-block shape at a
time, against 7.1 when the draw built its real and imaginary parts apart
and the criterion copied every site; ``check random:1,10`` holds 6.0,
against 17.1 when its 32 KiB matrix was drawn through 512 KiB row blocks.
Building a ``ghz`` or ``cloner`` operator holds 2.00 matrices and up to
1.7 kB, the operator beside its validated copy, which its guard counts.
Beyond numpy's arrays, a child process holds 34.1 MB once it has imported
the package and ``numpy.random``, which ``tracemalloc`` does not see.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdecomp import (
    ContractViolationError,
    Isometry,
    SequentialPlan,
    build_plan,
    check_canonical,
    formats,
    gisin_massar_cloner,
    haar_unitary,
    operator_to_mps,
    product_unitary,
    random_isometry,
    sequentiality_test,
    simulate,
    verify_plan,
)
from seqdecomp import oplib, sequencer
from seqdecomp.cli import load_operator, main

from oracles import haar_columns_full, haar_isometry


def haar_product(n, seed):
    rng = np.random.default_rng(seed)
    return product_unitary([haar_unitary(2, rng) for _ in range(n)])


def peak_bytes(call):
    """Peak of ``call()`` above what was held before it, in bytes."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - held


def dense_guard(counted):
    """A stand-in for ``sequencer._require_dense_fits`` that records, in
    bytes, what it counts beside the dense target held before the call."""
    return lambda name, m, n, copies=1, spare=0: counted.append(
        (copies - 1) * 16 * 2 ** (m + n) + spare
    )


def peak_matrices(call, u):
    """Peak of ``call()`` above what was held before it, in matrices of ``u``."""
    return peak_bytes(call) / u.matrix.nbytes


def test_the_peel_of_a_product_holds_under_half_a_matrix():
    # the dense peel of the product's matrix, which the product itself skips
    u = Isometry(10, 10, haar_product(10, seed=1).matrix)
    assert peak_matrices(lambda: operator_to_mps(u), u) <= 0.5


def test_a_product_is_decided_planned_and_verified_without_its_matrix():
    # 2 MiB is an eighth of the 10-factor product's dense 1024 x 1024 matrix
    u = haar_product(10, seed=5)
    warm = haar_product(2, seed=5)  # first calls import numpy modules lazily
    verify_plan(build_plan(warm), warm)
    assert peak_bytes(lambda: sequentiality_test(u)) < 2 * 2**20  # check
    assert peak_bytes(lambda: check_canonical(*operator_to_mps(u))) < 2 * 2**20  # info
    assert peak_bytes(lambda: verify_plan(build_plan(u), u)) < 2 * 2**20  # decompose


@pytest.mark.parametrize(
    "make, bound",
    [
        (lambda: haar_isometry(1, 16, 3), 5.8),
        (lambda: haar_isometry(8, 9, 4), 5.3),
        (lambda: gisin_massar_cloner(8), 3.0),
    ],
    ids=["haar 1->16", "haar 8->9", "cloner:8"],
)
def test_the_peel_holds_no_more_than_the_fused_vector_peel(make, bound):
    u = make()
    assert peak_matrices(lambda: operator_to_mps(u), u) <= bound


@pytest.mark.parametrize(
    "make, bound",
    [(lambda: haar_product(10, seed=2), 0.5), (lambda: gisin_massar_cloner(8), 3.0)],
    ids=["product:10", "cloner:8"],
)
def test_verification_holds_a_few_blocks_whatever_the_ancilla(make, bound):
    # the cloner:8 plan has ancilla 16, but no state of its chain is larger
    # than the target: its one contraction holds two of them at a time
    u = make()
    plan = build_plan(u)
    assert peak_matrices(lambda: verify_plan(plan, u), u) <= bound


def held_as_chain(u):
    return Isometry._from_chain(operator_to_mps(u)[0], 0.0, lambda: np.array(u.matrix))


@pytest.mark.parametrize(
    "make",
    [
        lambda: haar_isometry(1, 12, 6),
        lambda: gisin_massar_cloner(8),
        lambda: gisin_massar_cloner(2),
        lambda: gisin_massar_cloner(3),
        lambda: haar_product(10, seed=6),
        lambda: held_as_chain(haar_isometry(1, 10, 6)),
    ],
    ids=["haar 1->12", "cloner:8", "cloner:2", "cloner:3", "product:10", "haar 1->10 as a chain"],
)
def test_the_verification_guard_covers_the_measured_peak(make, monkeypatch):
    # the guard's count in bytes, beside the dense target that is held before
    # the call; on a small target the fixed costs, not the matrices, set the
    # peak: 2.3 kB on cloner:2, whose matrix is 256 bytes
    u = make()
    plan = build_plan(u)
    counted = []
    monkeypatch.setattr(sequencer, "_require_fits",
                        lambda name, what, need: counted.append(need))
    monkeypatch.setattr(sequencer, "_require_dense_fits", dense_guard(counted))
    verify_plan(plan, u)
    assert peak_bytes(lambda: verify_plan(plan, u)) <= counted[-1]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), m=st.integers(1, 7), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_no_state_of_an_accepted_plan_outgrows_its_target(n, m, data, seed):
    # bonds drawn from the last to the first, each up to one more than
    # orthonormal columns allow (b[k] <= b[k + 1] at an input site, 2 * b[k + 1]
    # after the inputs), so that some blocks have more columns than rows;
    # every block is filled with Haar columns where it can be
    m = min(m, n)
    bonds = [1]
    for k in reversed(range(1, n)):
        most = min(16, bonds[0] if k < m else 2 * bonds[0])
        bonds.insert(0, data.draw(st.integers(1, most + 1), label=f"b[{k}]"))
    bonds.insert(0, 1)
    rng = np.random.default_rng(seed)
    shapes = [(2 * bonds[k + 1], (2 if k < m else 1) * bonds[k]) for k in range(n)]
    blocks = [haar_columns_full(max(r, c), c, rng)[:r] for r, c in shapes]
    try:
        plan = SequentialPlan(max(bonds), m, blocks, bonds)
    except ContractViolationError as exc:
        assert "not orthonormal" in str(exc)
        assert any(c > r for r, c in shapes)
        return
    for k, b in enumerate(bonds):
        assert 2 ** min(k, m) * 2**k * b <= 2 ** (n + m)
    # and its verification against a dense target stays within the guard
    u = random_isometry(m, n, seed)
    counted = []
    with mock.patch.object(sequencer, "_require_dense_fits", dense_guard(counted)):
        verify_plan(plan, u)
    assert peak_bytes(lambda: verify_plan(plan, u)) <= counted[-1]


@pytest.mark.parametrize(
    "make",
    [
        lambda: gisin_massar_cloner(8),
        lambda: haar_isometry(1, 12, 6),
        lambda: haar_product(10, seed=6),
    ],
    ids=["cloner:8", "haar 1->12", "product:10"],
)
def test_the_simulation_guard_covers_the_measured_peak(make, monkeypatch):
    # the guard's count in bytes, beside the plan and the input held before
    # the call; a real input makes simulate hold a complex copy of it
    plan = build_plan(make())
    psi = np.zeros(2**plan.m_in)
    psi[-1] = 1.0
    counted = []
    monkeypatch.setattr(sequencer, "_require_fits", lambda name, what, need: counted.append(need))
    simulate(plan, psi)
    assert peak_bytes(lambda: simulate(plan, psi)) <= counted[-1]


def warm_requests(capsys):
    # first calls import numpy modules lazily
    for argv in (["check", "random:2,3,0"], ["decompose", "random:2,3,0"], ["check", "random:1,3,0"]):
        main(argv)
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "decompose"])
@pytest.mark.parametrize("operator, m, n", [("random:5,9,1", 5, 9), ("random:7,7,1", 7, 7)])
def test_a_rejected_dense_request_holds_under_six_matrices(command, operator, m, n, capsys):
    # 5.6 measured: the draw's 3.1 to 4.1, the peel's, and the criterion's
    # one shape of input blocks at a time, with no copy of the chain's other
    # sites; 7.1 when each site was copied twice and the input blocks stacked
    warm_requests(capsys)
    codes = []
    peak = peak_bytes(lambda: codes.append(main([command, operator])))
    assert codes == [1]
    assert peak <= 6 * 16 * 2 ** (m + n)


def test_check_of_a_haar_encoder_holds_under_eight_matrices(capsys):
    # random:1,10 is a 32 KiB matrix: 6.0 measured, where drawing it through
    # 512 KiB row blocks took 17.1
    warm_requests(capsys)
    codes = []
    peak = peak_bytes(lambda: codes.append(main(["check", "random:1,10,1"])))
    assert codes == [0]
    assert peak <= 8 * 16 * 2 ** (1 + 10)


@pytest.mark.parametrize("token", ["ghz:10", "ghz:18", "cloner:8", "cloner:9"])
def test_the_build_guard_covers_the_measured_peak(token, monkeypatch):
    # the guard's count in bytes, with nothing held before the call: two
    # matrices and 2048 bytes of fixed costs, 1.7 kB measured at most
    counted = []
    monkeypatch.setattr(oplib, "_require_dense_fits",
                        lambda name, m, n, copies=1, spare=0: counted.append(
                            copies * 16 * 2 ** (m + n) + spare))
    load_operator(token)  # first calls fill numpy's caches
    assert peak_bytes(lambda: load_operator(token)) <= counted[-1]


def test_a_plan_file_is_read_one_step_at_a_time(tmp_path, capsys):
    # ten blocks, 76 kB as arrays and the largest 64 x 32, in 102 kB of text;
    # the text itself is held before the read, and each block is one string
    # until it is decoded
    path = tmp_path / "plan.json"
    assert main(["decompose", "random:1,10,3", "-o", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text()
    blocks = formats.doc_to_plan(formats.parse_document(text, "plan")).blocks
    held = sum(q.nbytes for q in blocks)
    assert peak_bytes(lambda: formats.doc_to_plan(formats.parse_document(text, "plan"))) < 4 * held
