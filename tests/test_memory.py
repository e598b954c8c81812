"""Peak memory of canonicalization and verification, beside the operator.

Each figure is the ``tracemalloc`` peak of one call above what was held
before it, in units of the operator's dense matrix; numpy reports its
array allocations to ``tracemalloc``.  The bounds sit above the measured
peaks: a 10-factor product's peel 0.38 matrices and its verification 0.08,
``cloner:8``'s verification 1.5, and the peels of a Haar 1 -> 16, a Haar
8 -> 9 and ``cloner:8`` 4.7, 3.6 and 2.0, against 5.8, 5.3 and 3.0 when
the peel regrouped the matrix into one fused vector first.
"""

import tracemalloc

import numpy as np
import pytest

from seqdecomp import (
    Isometry,
    build_plan,
    gisin_massar_cloner,
    haar_unitary,
    operator_to_mps,
    product_unitary,
    verify_plan,
)


def haar_isometry(m, n, seed):
    """A Haar-distributed ``m -> n`` isometry, without drawing a whole
    ``2**n`` unitary."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2**n, 2**m)) + 1j * rng.standard_normal((2**n, 2**m))
    return Isometry(m, n, np.linalg.qr(z)[0])


def haar_product(n, seed):
    rng = np.random.default_rng(seed)
    return product_unitary([haar_unitary(2, rng) for _ in range(n)])


def peak_matrices(call, u):
    """Peak of ``call()`` above what was held before it, in matrices of ``u``."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - held) / u.matrix.nbytes


def test_the_peel_of_a_product_holds_under_half_a_matrix():
    u = haar_product(10, seed=1)
    assert peak_matrices(lambda: operator_to_mps(u), u) <= 0.5


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
    # the whole operator of the cloner:8 plan is 16 matrices, ancilla 16
    u = make()
    plan = build_plan(u)
    assert peak_matrices(lambda: verify_plan(plan, u), u) <= bound
