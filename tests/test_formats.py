"""The [re, im] codec and the JSON emitter, against entry-by-entry references."""

import copy
import functools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqdecomp import ContractViolationError, build_plan, shor_encoder, verify_plan
from seqdecomp import cli, formats, sequencer
from seqdecomp.cli import main

from oracles import (
    amplitudes_loops,
    decode_matrix_loops,
    dumps_tokens,
    encode_matrix,
    parse_document_tree,
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


class _Members(tuple):
    """A JSON object as its (key, value) pairs, in writing order; keys may repeat."""


_GAPS = ["", "", " ", "\n", "\t", "\r\n", "  \n\t "]


def _write(value, rng) -> str:
    """JSON text of ``value`` with whitespace drawn from ``rng`` in every gap."""
    if isinstance(value, dict):
        value = _Members(value.items())
    if isinstance(value, _Members):
        items = [_write(k, rng) + ":" + _write(v, rng) for k, v in value]
        return _join("{", items, "}", rng)
    if isinstance(value, list):
        return _join("[", [_write(v, rng) for v in value], "]", rng)
    return rng.choice(_GAPS) + json.dumps(value) + rng.choice(_GAPS)


def _join(opening, items, closing, rng):
    gap = rng.choice(_GAPS)
    return gap + opening + (",".join(items) or rng.choice(_GAPS)) + closing + gap


@functools.cache
def _plan_docs():
    docs = []
    for operator in ("shor", "ghz:3", "product"):
        u = cli.load_operator(operator)
        plan = build_plan(u)
        docs.append(json.loads(formats.dumps(formats.plan_to_doc(plan, verify_plan(plan, u)))))
    return docs


_BAD_ENTRIES = ["1.0", None, math.nan, math.inf, True, False]
#: Replacements for a step of a plan file: no matrix, a matrix of another
#: shape than the bonds fix, one whose columns are not orthonormal, and an
#: identity of the step's height, which the bonds accept where they make
#: the block square (an input site between equal bonds).
_BAD_STEPS = [
    lambda step: 1.0,
    lambda step: "step",
    lambda step: None,
    lambda step: {},
    lambda step: [],
    lambda step: [list(column) for column in zip(*step)],
    lambda step: [row + row[:1] for row in step],
    lambda step: step[:-1],
    # an entry that "bad entry" made None stays None
    lambda step: [[[x if x is None else 2 * x for x in pair] for pair in row] for row in step],
    lambda step: [[[float(r == c), 0.0] for c in range(len(step))] for r in range(len(step))],
]
_MUTATIONS = [
    "bad entry", "ragged row", "ragged pair", "bad step", "empty steps",
    "duplicate steps", "drop a member", "key not a string", "wrong delimiter", "trailing data",
    "top-level list", "truncated",
]


def _outer_delimiters(text):
    """Where ``text`` has a delimiter at most one bracket deep; no string
    in these documents holds one."""
    depth, found = 0, []
    for at, c in enumerate(text):
        depth -= c in "]}"
        if c in ",:[]{}" and depth <= 1:
            found.append(at)
        depth += c in "[{"
    return found


def _read_plan(parse, text):
    """The plan that ``parse`` and ``doc_to_plan`` read from ``text``, as
    comparable bytes, or the message they refuse it with."""
    try:
        plan = formats.doc_to_plan(parse(text, "plan"), "plan")
    except ContractViolationError as exc:
        return str(exc)
    blocks = [(q.shape, q.dtype.str, q.tobytes()) for q in plan.blocks]
    return plan.ancilla_dim, plan.m_in, plan.bond_dims, blocks


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_plans_read_step_by_step_like_the_whole_tree(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_plan_docs())))
    # a seeded generator, not st.randoms: it draws thousands of gaps per text
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    mutations = data.draw(st.lists(st.sampled_from(_MUTATIONS), max_size=2, unique=True))
    steps = doc["steps"]
    k = rng.randrange(len(steps))
    row = steps[k][rng.randrange(len(steps[k]))]
    if "bad entry" in mutations:
        row[rng.randrange(len(row))][rng.randrange(2)] = rng.choice(_BAD_ENTRIES)
    if "ragged row" in mutations:
        del row[rng.randrange(len(row))]
    if "ragged pair" in mutations:
        del row[rng.randrange(len(row))][rng.randrange(2)]
    if "bad step" in mutations:
        steps[k] = rng.choice(_BAD_STEPS)(steps[k])
    if "empty steps" in mutations:
        doc["steps"] = []
    members = list(doc.items())
    rng.shuffle(members)
    if data.draw(st.booleans()):  # steps first
        members.sort(key=lambda item: item[0] != "steps")
    if "duplicate steps" in mutations:
        other = rng.choice([[], steps[:1], steps[::-1], "steps"])
        members.insert(rng.randrange(len(members) + 1), ("steps", other))
    if "drop a member" in mutations:
        del members[rng.randrange(len(members))]
    if "key not a string" in mutations:
        at = rng.randrange(len(members))
        members[at] = (rng.choice([1, None, True]), members[at][1])
    text = _write(_Members(members), rng)
    if "wrong delimiter" in mutations:  # of the object or of a list in it
        at = rng.choice(_outer_delimiters(text))
        text = text[:at] + rng.choice(",:[]{}x") + text[at + 1 :]
    if "trailing data" in mutations:
        text += rng.choice(["x", "{}", "}", "]", ",", " 1", "\ufeff"])
    if "top-level list" in mutations:
        text = "[" + text + "]"
    if "truncated" in mutations:
        text = text[: rng.randrange(len(text))]
    assert _read_plan(formats.parse_document, text) == _read_plan(parse_document_tree, text)
    try:
        tree = json.loads(text)
    except ValueError:
        return
    if isinstance(tree, dict):  # the walk takes every object, never falling back to the tree
        formats._walk_object(text)


@pytest.mark.parametrize(
    "text",
    ["[1, 2]", '"steps"', "3", "null", "\ufeff{}", '{"steps": [[1]]} x', '{"a": 1' + "0" * 5000 + "}"],
)
def test_documents_other_than_a_plan_read_as_before(text):
    try:
        expected = parse_document_tree(text, "doc")
    except ContractViolationError as exc:
        with pytest.raises(ContractViolationError) as new:
            formats.parse_document(text, "doc")
        assert str(new.value) == str(exc)
        return
    assert formats.parse_document(text, "doc") == expected
