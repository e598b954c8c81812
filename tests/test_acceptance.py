"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from contextlib import contextmanager

import numpy as np

from seqdecomp import (
    Isometry,
    build_plan,
    canonicalize,
    check_canonical,
    cnot,
    ghz_isometry,
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

from oracles import gauge_inflate, gauge_residual, operator_cut_ranks, reduced_rho_loops


@contextmanager
def criterion(number, name):
    try:
        yield
    except AssertionError:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def _named_operators():
    return [
        cnot(),
        shor_encoder(),
        ghz_isometry(3),
        ghz_isometry(4),
        gisin_massar_cloner(2),
        gisin_massar_cloner(3),
    ]


def test_criterion_1_cnot_rejection():
    with criterion(1, "CNOT rejection vs product acceptance"):
        start = time.monotonic()
        report = sequentiality_test(cnot())
        assert not report.implementable
        assert max(report.per_site_residuals) > 0.1
        rng = np.random.default_rng(41)
        for _ in range(3):
            factors = [haar_unitary(2, rng) for _ in range(2)]
            product_report = sequentiality_test(product_unitary(factors))
            assert product_report.implementable
            assert max(product_report.per_site_residuals) < 1e-10
        assert time.monotonic() - start < 1.0


def test_criterion_2_shor_encoder():
    with criterion(2, "Shor encoder plan with ancilla dimension 4"):
        start = time.monotonic()
        u = shor_encoder()
        plan = build_plan(u)
        assert plan.ancilla_dim == 4
        verification = verify_plan(plan, u)
        assert verification.max_error < 1e-9
        for j in range(2):
            amps = np.zeros(2, dtype=complex)
            amps[j] = 1.0
            assert np.linalg.norm(simulate(plan, amps) - u.matrix[:, j]) < 1e-10
        assert time.monotonic() - start < 5.0


def test_criterion_3_cloners():
    with criterion(3, "cloner plans, equal clones, fidelity 5/6"):
        for n in (2, 3):
            u = gisin_massar_cloner(n)
            plan = build_plan(u)
            assert plan.ancilla_dim <= 2 * n
            # constructed state and simulated plan output agree clone by clone
            for source in ("constructed", "simulated"):
                if source == "constructed":
                    psi = u.matrix[:, 0]
                else:
                    psi = simulate(plan, np.array([1.0, 0.0]))
                rhos = [reduced_rho_loops(psi, 2 * n - 1, s) for s in range(n)]
                for rho in rhos[1:]:
                    assert np.max(np.abs(rho - rhos[0])) < 1e-10
                if n == 2:
                    assert abs(rhos[0][0, 0].real - 5.0 / 6.0) < 1e-10


def test_criterion_4_one_to_n_universality():
    with criterion(4, "100 random 1->N isometries all implementable"):
        start = time.monotonic()
        for n in (2, 3, 4, 5):
            for i in range(25):
                u = random_isometry(1, n, seed=1000 + 50 * n + i)
                report = sequentiality_test(u)
                assert report.implementable
                plan = build_plan(u)
                assert verify_plan(plan, u).max_error < 1e-9
        assert time.monotonic() - start < 60.0


def test_criterion_5_optimality_oracle_equivalence():
    with criterion(5, "bond dimensions match bipartition ranks, ancilla optimal"):
        cases = _named_operators()
        cases += [random_isometry(1, n, seed=300 + n) for n in (2, 3, 4, 5)]
        cases += [random_isometry(2, 4, seed=311), random_isometry(3, 5, seed=312)]
        for u in cases:
            op, _ = operator_to_mps(u)
            assert op.bond_dims[1:-1] == operator_cut_ranks(u, tol=1e-10)
            report = sequentiality_test(u)
            assert report.ancilla_dim_if_yes == op.max_bond_dim
            if report.implementable:
                assert build_plan(u).ancilla_dim == op.max_bond_dim


def test_criterion_6_direct_sum_bound():
    with criterion(6, "ancilla bounded by the sum of branch bond dimensions"):
        cases = [shor_encoder(), ghz_isometry(3), gisin_massar_cloner(2),
                 gisin_massar_cloner(3)]
        cases += [
            random_isometry(1, n, seed=400 + 20 * n + i)
            for n in (2, 3, 4, 5)
            for i in range(5)
        ]
        for u in cases:
            d0 = state_to_mps(u.matrix[:, 0])[0].max_bond_dim
            d1 = state_to_mps(u.matrix[:, 1])[0].max_bond_dim
            op, _ = operator_to_mps(u)
            assert op.max_bond_dim <= d0 + d1
            if u.n_out == 3 and u.m_in == 1 and np.allclose(
                u.matrix, ghz_isometry(3).matrix
            ):
                assert op.max_bond_dim < d0 + d1  # strictly below for GHZ


def test_criterion_7_square_unitaries_equivalence():
    with criterion(7, "verdict matches operator Schmidt ranks on 50 unitaries"):
        rng = np.random.default_rng(71)
        swap = Isometry(2, 2, np.eye(4)[:, [0, 2, 1, 3]].astype(complex))
        cz = Isometry(2, 2, np.diag([1, 1, 1, -1]).astype(complex))
        cphase = lambda phi: Isometry(
            2, 2, np.diag([1, 1, 1, np.exp(1j * phi)]).astype(complex)
        )
        cases = [cnot(), swap, cz, cphase(0.7), cphase(2.1)]
        cases += [product_unitary([np.eye(2, dtype=complex)] * k) for k in (2, 3)]
        for _ in range(10):
            cases.append(product_unitary([haar_unitary(2, rng) for _ in range(2)]))
        for _ in range(5):
            cases.append(product_unitary([haar_unitary(2, rng) for _ in range(3)]))
        for s in range(10):
            cases.append(random_isometry(2, 2, seed=500 + s))
        for s in range(10):
            cases.append(random_isometry(3, 3, seed=520 + s))
        for s in range(8):
            phi = float(rng.uniform(0.3, 2.8))
            three = np.kron(cphase(phi).matrix, haar_unitary(2, rng))
            cases.append(Isometry(3, 3, three))
        assert len(cases) == 50
        for u in cases:
            product_like = all(r == 1 for r in operator_schmidt_ranks(u))
            assert sequentiality_test(u).implementable == product_like


def test_criterion_8_canonical_form_suite():
    with criterion(8, "canonical residuals, spectra, and gauge equivalence"):
        operators = _named_operators()
        operators += [random_isometry(1, 4, seed=601), random_isometry(2, 3, seed=602)]
        for u in operators:
            direct, w_direct = operator_to_mps(u)
            assert check_canonical(direct, w_direct).passed
            hidden = gauge_inflate(direct, pad_to=direct.max_bond_dim + 2, seed=603)
            recovered, w_recovered = canonicalize(hidden)
            assert check_canonical(recovered, w_recovered).passed
            for a, b in zip(w_direct.lambdas, w_recovered.lambdas):
                assert np.max(np.abs(np.sort(a)[::-1] - np.sort(b)[::-1])) < 1e-10
            assert gauge_residual(direct, w_direct, recovered, w_recovered) <= 1e-8
        # the same pipeline on plain states
        rng = np.random.default_rng(604)
        for n in (3, 5, 7):
            psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            psi /= np.linalg.norm(psi)
            direct, w_direct = state_to_mps(psi)
            assert check_canonical(direct, w_direct).passed
            recovered, w_recovered = canonicalize(gauge_inflate(direct, seed=n))
            assert check_canonical(recovered, w_recovered).passed
            assert gauge_residual(direct, w_direct, recovered, w_recovered) <= 1e-8
