"""Tests for the package namespace, which loads each submodule on first use,
and for the value semantics of the types its functions return."""

import sys

import numpy as np
import pytest

import seqdecomp
from seqdecomp import (
    CanonicalReport,
    CanonicalWeights,
    Isometry,
    Mps,
    PlanVerification,
    SequentialityReport,
    SequentialPlan,
    formats,
)


def test_every_public_name_resolves_to_its_home_module():
    assert len(set(seqdecomp.__all__)) == len(seqdecomp.__all__) == 34
    for name in seqdecomp.__all__:
        value = getattr(seqdecomp, name)
        if name == "RANK_TOL":
            home = "seqdecomp.linalg"
        else:
            home = value.__module__
            assert value.__name__ == name
        assert home.startswith("seqdecomp.")
        assert getattr(sys.modules[home], name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from seqdecomp import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(seqdecomp.__all__)
    assert all(namespace[name] is getattr(seqdecomp, name) for name in namespace)


def test_dir_lists_every_public_name():
    listed = dir(seqdecomp)
    assert set(seqdecomp.__all__) <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        seqdecomp.no_such_name
    assert not hasattr(seqdecomp, "canonical_chain")


@pytest.mark.parametrize(
    "name", ["gauge_check", "GaugeVerdict", "contract_state", "direct_sum_operator_mps"]
)
def test_names_that_only_tests_called_are_gone(name):
    # the gauge oracle and the state contraction live in tests/oracles.py,
    # and mps.direct_sum builds the sum of two chains
    assert name not in seqdecomp.__all__
    assert not hasattr(seqdecomp, name)


def test_formats_writes_no_operator_documents():
    assert not hasattr(formats, "isometry_to_doc")


# one builder per returned type; each call makes a new instance of the same values
HOLDERS = {
    "Isometry": lambda: Isometry(1, 1, np.eye(2)),
    "Mps": lambda: Mps([np.ones((2, 1, 1))]),
    "CanonicalWeights": lambda: CanonicalWeights([np.ones(1)]),
    "SequentialPlan": lambda: SequentialPlan(1, 1, [np.eye(2)], [1, 1]),
}
REPORTS = {
    "SequentialityReport": lambda: SequentialityReport(True, (0.0,), (1, 1), 1),
    "PlanVerification": lambda: PlanVerification(0.0, 0.0),
    "CanonicalReport": lambda: CanonicalReport(0.0, 0.0, 0.0),
}


def field_names(value):
    """A report's named-tuple fields, or a holder's annotated attributes."""
    if isinstance(value, tuple):
        return type(value)._fields
    return [*vars(type(value))["__annotations__"]]


@pytest.mark.parametrize("build", [*HOLDERS.values(), *REPORTS.values()],
                         ids=[*HOLDERS, *REPORTS])
def test_every_returned_value_refuses_assignment_and_deletion(build):
    value = build()
    for name in [*field_names(value), "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("build", HOLDERS.values(), ids=HOLDERS)
def test_the_holders_compare_and_hash_by_identity(build):
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize("build", REPORTS.values(), ids=REPORTS)
def test_the_reports_compare_and_hash_by_value(build):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    values = [getattr(a, name) for name in field_names(a)]
    assert a != type(a)(None, *values[1:])


def test_the_constructors_take_their_keywords_and_defaults():
    state = Mps([np.ones((2, 1, 1))])
    assert (state.norm, state.m_in, state.n_sites) == (1.0, 0, 1)
    op = Mps(tensors=[np.ones((4, 1, 1))], norm=2.0, m_in=1)
    assert (op.norm, op.m_in) == (2.0, 1)
    assert len(CanonicalWeights(lambdas=[np.ones(1)]).lambdas) == 1
    u = Isometry(m_in=1, n_out=1, matrix=np.eye(2))
    assert u.chain is None and u.is_unitary and not u.matrix.flags.writeable
    plan = SequentialPlan(ancilla_dim=1, m_in=1, blocks=[np.eye(2)], bond_dims=[1, 1])
    assert plan.report is None and plan.bond_dims == (1, 1)
    assert plan.steps is plan.steps  # cached when first read
    report = SequentialityReport(
        implementable=True, per_site_residuals=(0.0,), bond_dims=(1, 1), ancilla_dim_if_yes=1
    )
    assert SequentialPlan(1, 1, [np.eye(2)], [1, 1], report=report).report is report
    assert CanonicalReport(left_normalization=0.0, weight_transport=0.0,
                           weight_validity=0.0).passed
    assert repr(PlanVerification(max_error=0.5, operator_norm_bound=1.0)) == (
        "PlanVerification(max_error=0.5, operator_norm_bound=1.0)"
    )


def test_a_report_equals_the_tuple_of_its_fields():
    # the reports are named tuples: value equality reaches plain tuples too
    assert PlanVerification(0.5, 1.0) == (0.5, 1.0)
    assert hash(CanonicalReport(0.0, 0.0, 0.0)) == hash((0.0, 0.0, 0.0))
    # `info` prints the canonical residuals by their field names
    assert CanonicalReport(1.0, 2.0, 3.0)._asdict() == {
        "left_normalization": 1.0, "weight_transport": 2.0, "weight_validity": 3.0
    }
