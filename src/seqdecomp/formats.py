"""Stable JSON encodings for operators and synthesized plans.

Complex entries are written as ``[re, im]`` pairs, matrices row-major with
rows indexed by the output basis state (big-endian, site 1 most
significant).  One recursive writer decides, deterministically, how every
value is written: dicts with their keys sorted, lists and tuples alike,
Python and numpy scalars, and ``complex128`` vectors and matrices as those
``[re, im]`` pairs, one ``%`` format per row.  Document builders pass the
library's values as they are.  Every float is printed with 17 significant
digits, which round-trips a double exactly, except that -0.0 is written as
``-0`` and reads back as 0.

A plan file's ``steps[k]`` is the plan's block ``k``
(:class:`~seqdecomp.sequencer.SequentialPlan`): the defined columns of
step ``k``, the only ones the chain reaches, in the shape that
``bond_dims`` fixes, ``(2 * b[k + 1]) x (2 * b[k])`` at an input site and
``(2 * b[k + 1]) x b[k]`` after the inputs.  It is one string, the RFC 4648
base64 (padded, no whitespace) of the block's row-major little-endian
``complex128`` bytes, so a block is written and read bit for bit, the sign
of zero included, without formatting or scanning a number per entry.
Neither writing nor reading a plan completes a step.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import ContractViolationError
from .linalg import ISOMETRY_TOL, RANK_TOL
from .sequencer import PlanVerification, SequentialityReport, SequentialPlan, _block_shapes

# oplib is imported only where an operator file is read, so that reading a
# plan does not load it
if TYPE_CHECKING:
    from .oplib import Isometry


#: What ``json.dumps`` applies to a string, without its per-call set-up.
_quote = json.encoder.encode_basestring_ascii


def dumps(obj: Any) -> str:
    """Deterministic JSON text for a document of dicts, lists and scalars."""
    return _text(obj)


def _text(obj: Any) -> str:
    """The JSON text of ``obj``.  It recurses into itself, not through
    ``dumps``: wrapping the public name must see one call per document."""
    if isinstance(obj, dict):
        return "{%s}" % ",".join([_quote(str(k)) + ":" + _text(obj[k]) for k in sorted(obj)])
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ",".join(map(_text, obj))
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.complex128 or obj.ndim not in (1, 2):
            raise ContractViolationError(f"cannot serialize a {obj.ndim}-D {obj.dtype} array")
        pairs = np.ascontiguousarray(obj).view(np.float64)
        if not np.isfinite(pairs).all():
            raise ContractViolationError("refusing to serialize a non-finite number")
        # one % format per row; '%.17g' % x prints a double as format(x, '.17g') does
        row = "[" + ",".join(["[%.17g,%.17g]"] * obj.shape[-1]) + "]"
        if obj.ndim == 1:
            return row % tuple(pairs.tolist())
        return "[%s]" % ",".join([row % tuple(r.tolist()) for r in pairs])
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ContractViolationError("refusing to serialize a non-finite number")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _text(float(obj))
    raise ContractViolationError(f"cannot serialize {type(obj).__name__}")


def decode_matrix(data: Any, rows: int, cols: int, where: str) -> np.ndarray:
    """Parse a nested ``rows x cols`` [re, im] matrix, naming the field on error.

    Every entry must be a pair of JSON numbers (booleans count as 0 and 1).
    """
    expected = f"{where}: expected {rows}x{cols} [re, im] pairs"
    try:
        a = np.asarray(data)  # one conversion of the whole nested list
    except ValueError:  # ragged nesting
        raise ContractViolationError(expected) from None
    if a.shape != (rows, cols, 2) or a.dtype.kind not in "biuf":
        raise ContractViolationError(expected)
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise ContractViolationError(f"{where}: non-finite entry")
    return a.view(np.complex128).reshape(rows, cols)


def encode_block(q: np.ndarray) -> str:
    """A plan block as base64 of its row-major little-endian complex128 bytes."""
    import base64  # here, so that a command that reads or writes no plan skips its import

    return base64.b64encode(np.ascontiguousarray(q, dtype="<c16")).decode("ascii")


def decode_block(data: Any, rows: int, cols: int, where: str) -> np.ndarray:
    """The ``rows x cols`` block that :func:`encode_block` wrote as ``data``,
    reporting the offending field on error.  The array is a read-only view
    of the decoded bytes."""
    import base64

    size = 16 * rows * cols
    expected = f"{where}: expected a {rows}x{cols} complex128 block as base64 of {size} bytes"
    if not isinstance(data, str):
        raise ContractViolationError(expected)
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise ContractViolationError(expected) from None
    if len(raw) != size:
        raise ContractViolationError(expected)
    q = np.frombuffer(raw, dtype="<c16").reshape(rows, cols)
    if not np.isfinite(q).all():
        raise ContractViolationError(f"{where}: non-finite entry in the {rows}x{cols} block")
    return q


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise ContractViolationError(f"{where}: missing field '{key}'")
    value = doc[key]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ContractViolationError(f"{where}.{key}: expected an integer")
    elif not isinstance(value, kind):
        raise ContractViolationError(f"{where}.{key}: expected {kind.__name__}")
    return value


def doc_to_isometry(doc: Any, where: str = "operator") -> Isometry:
    from . import oplib

    if not isinstance(doc, dict):
        raise ContractViolationError(f"{where}: expected a JSON object")
    m = _require(doc, "m_qubits", int, where)
    n = _require(doc, "n_qubits", int, where)
    if not 1 <= m <= n:
        raise ContractViolationError(f"{where}: need 1 <= m_qubits <= n_qubits")
    rows = _require(doc, "matrix", list, where)
    if n >= len(rows).bit_length():  # fewer than 2**n rows; checked without forming 2**n
        raise ContractViolationError(
            f"{where}.n_qubits: the matrix needs 2**n_qubits rows, it has {len(rows)}"
        )
    matrix = decode_matrix(rows, 2**n, 2**m, f"{where}.matrix")
    return oplib.Isometry(m, n, matrix)


def report_to_doc(report: SequentialityReport) -> dict:
    return {
        "implementable": report.implementable,
        "per_site_residuals": report.per_site_residuals,
        "bond_dims": report.bond_dims,
        "ancilla_dim_if_yes": report.ancilla_dim_if_yes,
        "criterion_tol": ISOMETRY_TOL,
        "rank_tol": RANK_TOL,
    }


def plan_to_doc(plan: SequentialPlan, verification: PlanVerification) -> dict:
    report = plan.report
    if report is None:
        raise ContractViolationError("plan carries no criterion report to write")
    return {
        "ancilla_dim": plan.ancilla_dim,
        "m_in": plan.m_in,
        "steps": [encode_block(q) for q in plan.blocks],
        "bond_dims": plan.bond_dims,
        "report": {
            "implementable": report.implementable,
            "residuals": report.per_site_residuals,
            "verification_error": verification.max_error,
            "verification_error_bound": verification.operator_norm_bound,
            # a plan's chain closes at bond 1, so its ancilla always decouples
            "decoupling_residual": 0.0,
        },
    }


def doc_to_plan(doc: Any, where: str = "plan") -> SequentialPlan:
    """The plan of a plan file's document, held as its blocks.  Its bonds
    are checked before they fix the shape each block is decoded in, and each
    block's columns are checked for orthonormality; errors name the field."""
    if not isinstance(doc, dict):
        raise ContractViolationError(f"{where}: expected a JSON object")
    ancilla_dim = _require(doc, "ancilla_dim", int, where)
    m_in = _require(doc, "m_in", int, where)
    steps_doc = _require(doc, "steps", list, where)
    bond_dims = _require(doc, "bond_dims", list, where)
    if ancilla_dim < 1:
        raise ContractViolationError(f"{where}.ancilla_dim: must be positive")
    try:
        shapes = _block_shapes(ancilla_dim, m_in, len(steps_doc), bond_dims)
    except ContractViolationError as exc:  # m_in or bond_dims, named as the file names it
        raise ContractViolationError(f"{where}.{exc}") from None
    blocks = [
        decode_block(step, rows, cols, f"{where}.steps[{k}]")
        for k, (step, (rows, cols)) in enumerate(zip(steps_doc, shapes))
    ]
    try:
        return SequentialPlan(ancilla_dim, m_in, blocks, bond_dims)
    except ContractViolationError as exc:  # a block, named as the file names it
        raise ContractViolationError(f"{where}.steps{str(exc).removeprefix('blocks')}") from None


def parse_document(text: str, where: str) -> Any:
    """The JSON document in ``text``, as ``json.loads`` reads it; errors name
    ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContractViolationError(
            f"{where}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # e.g. an integer over the int-to-string digit limit
        raise ContractViolationError(f"{where}: invalid JSON: {exc}") from None
