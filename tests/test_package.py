"""Tests for the package namespace, which loads each submodule on first use."""

import sys

import pytest

import seqdecomp
from seqdecomp import formats


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
