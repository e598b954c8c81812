"""The [re, im] codec, the plan-block codec and the JSON emitter, against
entry-by-entry references."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqdecomp import ContractViolationError, SequentialPlan, build_plan, shor_encoder, verify_plan
from seqdecomp import formats, sequencer
from seqdecomp.cli import main

from oracles import (
    amplitudes_loops,
    decode_matrix_loops,
    dumps_tokens,
    encode_block_entries,
    encode_matrix,
    haar_columns_full,
)

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 2.0**53, 1e16]

_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL_FLOATS),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    _floats,
    _floats.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.text(alphabet=st.sampled_from('"\\/\n\t\x00\x1fa Zé€😀'), max_size=8),
    st.text(max_size=8),
)
_documents = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_dumps_matches_reference(doc):
    text = formats.dumps(doc)
    assert text == dumps_tokens(doc)
    json.loads(text)


_complex_arrays = hnp.arrays(
    np.complex128,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=9),
    elements=st.builds(complex, _floats, _floats),
)


@settings(max_examples=200, deadline=None)
@given(_complex_arrays)
def test_dumps_writes_arrays_like_the_reference(a):
    assert formats.dumps(a) == dumps_tokens(a)
    # strided views and arrays inside documents take the same path
    doc = {"a": [a, a.T], "b": a[::-1]}
    assert formats.dumps(doc) == dumps_tokens(doc)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (1,), (7,)])
def test_dumps_writes_special_floats_in_every_position(shape):
    pairs = [complex(x, y) for x in SPECIAL_FLOATS for y in SPECIAL_FLOATS]
    pairs += [-z for z in pairs]  # signed zeros and negative subnormals
    size = math.prod(shape)
    for start in range(0, len(pairs), size):
        a = np.resize(np.array(pairs[start : start + size]), shape)
        assert formats.dumps(a) == dumps_tokens(encode_matrix(a))


@pytest.mark.parametrize(
    "obj",
    [
        math.nan,
        -math.inf,
        [1.0, math.inf],
        {"a": np.float64("nan")},
        np.bool_(True),
        1j,
        {1, 2},
        np.array([1.0, complex(math.nan, 0.0)]),
        [np.array([[0.0, complex(0.0, -math.inf)]])],
        np.eye(2),
        np.eye(2, dtype=np.complex64),
        np.zeros((2, 2, 2), dtype=np.complex128),
        np.array(1j),
    ],
)
def test_dumps_refuses_what_the_reference_refuses(obj):
    with pytest.raises(ContractViolationError) as new:
        formats.dumps(obj)
    with pytest.raises(ContractViolationError) as ref:
        dumps_tokens(obj)
    assert str(new.value) == str(ref.value)


def test_dumps_calls_the_public_name_once(monkeypatch):
    # a tracer wraps formats.dumps by name; the recursion must not go through it
    u = shor_encoder()
    plan = build_plan(u)
    doc = formats.plan_to_doc(plan, verify_plan(plan, u))
    calls = []
    public = formats.dumps

    def counting(obj):
        calls.append(obj)
        return public(obj)

    monkeypatch.setattr(formats, "dumps", counting)
    text = formats.dumps(doc)
    assert len(calls) == 1
    assert text == dumps_tokens(doc)


_IDENTITY = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]

# 2x2 inputs to decode_matrix: JSON values, valid and malformed
_MATRICES = {
    "floats": _IDENTITY,
    "ints": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "bools": [[[True, False], [False, False]], [[False, False], [True, False]]],
    "mixed kinds": [[[1, 0.5], [True, -0.0]], [[5e-324, -5e-324], [1.7976931348623157e308, 0]]],
    "large ints": [[[2**53 + 1, 2**63 - 1], [-(2**63), 0]], [[2**63, 0], [3, 2**53]]],
    "string entry": [[["1.0", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "string pair": [["ab", [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "none entry": [[None, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "none in pair": [[[None, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "dict entry": [[{"re": 1.0, "im": 0.0}, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "scalar entry": [[1.0, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "all scalars": [[1.0, 0.0], [0.0, 1.0]],
    "pair of 1": [[[1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "all pairs of 1": [[[1.0], [0.0]], [[0.0], [1.0]]],
    "pair of 3": [[[1.0, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "all pairs of 3": [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]],
    "nested pair": [[[[1.0, 0.0], 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "ragged rows": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "short row everywhere": [[[1.0, 0.0]], [[1.0, 0.0]]],
    "long row": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]],
    "one row": [[[1.0, 0.0], [0.0, 0.0]]],
    "three rows": _IDENTITY + [[[0.0, 0.0], [0.0, 0.0]]],
    "no rows": [],
    "nan": [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "inf": [[[1.0, math.inf], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "-inf": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-math.inf, 0.0]]],
    "row is a dict": [{"a": 1}, [[0.0, 0.0], [1.0, 0.0]]],
    "row is a number": [1.0, [[0.0, 0.0], [1.0, 0.0]]],
    "object": {"rows": _IDENTITY},
    "string": "[[[1, 0]]]",
    "number": 1.0,
    "null": None,
    "true": True,
}


def _decode_or_error(decode, data):
    try:
        return decode(data)
    except ContractViolationError:
        return None


@pytest.mark.parametrize("name", sorted(_MATRICES))
def test_decode_matrix_matches_reference(name):
    data = _MATRICES[name]
    new = _decode_or_error(lambda d: formats.decode_matrix(d, 2, 2, "op.matrix"), data)
    ref = _decode_or_error(lambda d: decode_matrix_loops(d, 2, 2), data)
    assert (new is None) == (ref is None)
    if new is not None:
        assert new.shape == (2, 2) and new.dtype == np.complex128
        assert new.tobytes() == ref.tobytes()


def test_decode_matrix_error_names_field_and_shape():
    shape = r"^op\.matrix: expected 2x2 \[re, im\] pairs$"
    with pytest.raises(ContractViolationError, match=shape):
        formats.decode_matrix(_MATRICES["ragged rows"], 2, 2, "op.matrix")
    with pytest.raises(ContractViolationError, match=r"^op\.matrix: non-finite"):
        formats.decode_matrix(_MATRICES["nan"], 2, 2, "op.matrix")


def test_decode_matrix_rejects_ints_beyond_machine_range():
    # the one known difference from the entry-by-entry reference, which
    # converts such ints to floats and leaves them to the isometry check
    data = [[[2**64, 0], [0, 0]], [[0, 0], [1, 0]]]
    assert decode_matrix_loops(data, 2, 2)[0, 0] == 2.0**64
    with pytest.raises(ContractViolationError):
        formats.decode_matrix(data, 2, 2, "op.matrix")


def _pairs_loops(a):
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [_pairs_loops(row) for row in a]


@pytest.mark.parametrize("shape", [(2, 2), (8, 8), (16, 4), (5,)])
def test_matrix_round_trip_is_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = m.reshape(-1)
    flat[::3] = complex(-0.0, 0.0)
    flat[1::5] = complex(0.0, -0.0)
    flat[2::7] = complex(5e-324, -1.7976931348623157e308)
    assert encode_matrix(m) == _pairs_loops(m)
    text = formats.dumps(m)
    assert text == dumps_tokens(_pairs_loops(m))
    doc = json.loads(text)
    rows, cols = (1, shape[0]) if len(shape) == 1 else shape
    back = formats.decode_matrix([doc] if len(shape) == 1 else doc, rows, cols, "m")
    # -0.0 is written as "-0", which JSON reads as the integer 0
    assert back.reshape(shape).tobytes() == (m + 0.0).tobytes()


# --input-state JSON lists for a 2-qubit plan
_INPUT_STATES = [
    "[1, 0, 0, 0]",
    "[0.5, [0.5, -0.5], 0, -1]",
    "[[1, 0], [0, 0], [0, 0], [0, 1]]",
    "[-0.0, 1, 5e-324, 0]",
    "[[true, false], 0, 0, 0]",
    "[[0.5, true], 1, 0, 0]",
    "[true, 0, 0, 0]",
    "[false, 1, 0, 0]",
    "[1, 0, 0]",
    "[1, 0, 0, 0, 0]",
    "[]",
    '["1", 0, 0, 0]',
    '[["1", 0], 0, 0, 0]',
    "[null, 1, 0, 0]",
    "[{}, 1, 0, 0]",
    "[[1], 0, 0, 0]",
    "[[1, 0, 0], 0, 0, 0]",
    "[[[1, 0]], 0, 0, 0]",
    "[[1, 0], [0], [0], [0]]",
    "[NaN, 1, 0, 0]",
    "[Infinity, 1, 0, 0]",
    "[[0, -Infinity], 1, 0, 0]",
    "[0, 0, 0, 0]",
]


@pytest.fixture(scope="module")
def two_qubit_plan(tmp_path_factory):
    path = tmp_path_factory.mktemp("plan") / "plan.json"
    assert main(["decompose", "product", "-o", str(path)]) == 0
    return path, formats.doc_to_plan(json.loads(path.read_text()))


@pytest.mark.parametrize("text", _INPUT_STATES)
def test_input_state_lists_match_reference(text, two_qubit_plan, capsys):
    path, plan = two_qubit_plan
    capsys.readouterr()
    code = main(["simulate", str(path), f"--input-state={text}"])
    out, err = capsys.readouterr()
    try:
        amps = amplitudes_loops(json.loads(text), plan.m_in)
    except ContractViolationError:
        amps = None
    # the reference let non-finite amplitudes through to the serializer,
    # which refused them; a zero state is refused after parsing
    if amps is None or not np.isfinite(amps).all() or not np.linalg.norm(amps):
        assert code == 2 and out == "" and err.startswith("error: --input-state")
        return
    assert code == 0, err
    state = sequencer.simulate(plan, amps / float(np.linalg.norm(amps)))
    expected = {
        "amplitudes": [[float(a.real), float(a.imag)] for a in state],
        "decoupling_residual": 0.0,
    }
    assert out == dumps_tokens(expected) + "\n"


def _signed_zeros_and_subnormals(q, rng):
    """``q`` with each of its exact zeros, real or imaginary part, turned at
    random into -0.0, a subnormal or itself; the columns stay orthonormal."""
    parts = q.copy().view(np.float64)
    zeros = np.flatnonzero(parts == 0.0)
    tiny = rng.choice([-0.0, 5e-324, -5e-324, 2.2e-310, -1e-320, 0.0], size=zeros.size)
    parts.reshape(-1)[zeros] = tiny
    return parts.view(np.complex128)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_plan_blocks_round_trip_bit_for_bit(data, seed):
    # bonds drawn from the last cut back, within what orthonormal columns
    # allow; each block is Haar columns on some of its rows and zero on the
    # others, whose zeros become -0.0 and subnormals
    n = data.draw(st.integers(1, 6), label="n")
    m = data.draw(st.integers(1, n), label="m")
    bonds = [1]
    for k in reversed(range(1, n)):
        most = min(8, bonds[0] if k < m else 2 * bonds[0])
        bonds.insert(0, data.draw(st.integers(1, most), label=f"b[{k}]"))
    bonds.insert(0, 1)
    rng = np.random.default_rng(seed)
    blocks = []
    for k in range(n):
        rows, cols = 2 * bonds[k + 1], (2 if k < m else 1) * bonds[k]
        kept = np.sort(rng.choice(rows, size=rng.integers(cols, rows + 1), replace=False))
        q = np.zeros((rows, cols), dtype=np.complex128)
        q[kept] = haar_columns_full(kept.size, cols, rng)
        blocks.append(_signed_zeros_and_subnormals(q, rng))
    report = sequencer.SequentialityReport(True, (0.0,) * m, tuple(bonds), max(bonds))
    plan = SequentialPlan(max(bonds), m, blocks, bonds, report)
    doc = formats.plan_to_doc(plan, sequencer.PlanVerification(0.0, 0.0))
    back = formats.doc_to_plan(formats.parse_document(formats.dumps(doc), "plan"))
    assert (back.ancilla_dim, back.m_in, back.bond_dims) == (plan.ancilla_dim, m, plan.bond_dims)
    for q, b in zip(plan.blocks, back.blocks, strict=True):
        assert q.shape == b.shape
        assert np.array_equal(q.view(np.uint64), b.view(np.uint64))
    assert doc["steps"] == [encode_block_entries(q) for q in plan.blocks]
    psi = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
    psi /= np.linalg.norm(psi)
    state = sequencer.simulate(plan, psi)
    assert np.array_equal(sequencer.simulate(back, psi).view(np.uint64), state.view(np.uint64))


@pytest.mark.parametrize(
    "text",
    ["[1, 2]", '"steps"', "3", "null", "\ufeff{}", '{"steps": [[1]]} x', '{"a": 1' + "0" * 5000 + "}"],
)
def test_documents_other_than_a_plan_read_as_before(text):
    # a document is what json.loads reads, and a refusal names the document
    try:
        expected = json.loads(text)
    except json.JSONDecodeError as exc:
        message = f"doc: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
    except ValueError as exc:
        message = f"doc: invalid JSON: {exc}"
    else:
        assert formats.parse_document(text, "doc") == expected
        return
    with pytest.raises(ContractViolationError) as new:
        formats.parse_document(text, "doc")
    assert str(new.value) == message
