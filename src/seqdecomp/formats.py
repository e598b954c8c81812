"""Stable JSON encodings for operators and synthesized plans.

Complex entries are written as ``[re, im]`` pairs, matrices row-major with
rows indexed by the output basis state (big-endian, site 1 most
significant).  Documents may carry ``complex128`` vectors and matrices
themselves; ``dumps`` writes them as those ``[re, im]`` pairs, one row per
``%`` format.  Serialization is deterministic: keys appear sorted and every
float is printed with 17 significant digits, which round-trips a double
exactly, except that -0.0 is written as ``-0`` and reads back as 0.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import ContractViolationError
from .oplib import Isometry
from .sequencer import PlanVerification, SequentialityReport, SequentialPlan


#: What ``json.dumps`` applies to a string, without its per-call set-up.
_quote = json.encoder.encode_basestring_ascii


def dumps(obj: Any) -> str:
    """Deterministic JSON text for a document of dicts, lists and scalars."""
    return _emit(obj)


def _emit(obj: Any) -> str:
    # Recurse here, not through ``dumps``: wrapping the public name must see
    # one call per document.
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ContractViolationError("refusing to serialize a non-finite number")
        return format(obj, ".17g")
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_emit, obj)) + "]"
    if isinstance(obj, np.ndarray):
        return _emit_array(obj)
    if isinstance(obj, dict):
        items = [_quote(str(key)) + ":" + _emit(obj[key]) for key in sorted(obj)]
        return "{" + ",".join(items) + "}"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _emit(float(obj))
    raise ContractViolationError(f"cannot serialize {type(obj).__name__}")


def _emit_array(a: np.ndarray) -> str:
    # '%.17g' % x and format(x, '.17g') print a double the same way
    if a.dtype != np.complex128 or a.ndim not in (1, 2):
        raise ContractViolationError(f"cannot serialize a {a.ndim}-D {a.dtype} array")
    pairs = np.ascontiguousarray(a).view(np.float64)
    if not np.isfinite(pairs).all():
        raise ContractViolationError("refusing to serialize a non-finite number")
    row = "[" + ",".join(["[%.17g,%.17g]"] * a.shape[-1]) + "]"
    if a.ndim == 1:
        return row % tuple(pairs.tolist())
    return "[" + ",".join([row % tuple(r) for r in pairs.tolist()]) + "]"


def decode_matrix(data: Any, rows: int, cols: int, where: str) -> np.ndarray:
    """Parse a nested [re, im] matrix, reporting the offending field on error.

    Every entry must be a pair of JSON numbers (booleans count as 0 and 1).
    """
    expected = f"{where}: expected {rows}x{cols} [re, im] pairs"
    try:
        a = np.array(data)
    except ValueError:  # ragged nesting
        raise ContractViolationError(expected) from None
    if a.shape != (rows, cols, 2) or a.dtype.kind not in "biuf":
        raise ContractViolationError(expected)
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise ContractViolationError(f"{where}: non-finite entry")
    return a.view(np.complex128).reshape(rows, cols)


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


def isometry_to_doc(u: Isometry) -> dict:
    return {
        "m_qubits": u.m_in,
        "n_qubits": u.n_out,
        "matrix": u.matrix,
    }


def doc_to_isometry(doc: Any, where: str = "operator") -> Isometry:
    if not isinstance(doc, dict):
        raise ContractViolationError(f"{where}: expected a JSON object")
    m = _require(doc, "m_qubits", int, where)
    n = _require(doc, "n_qubits", int, where)
    if not 1 <= m <= n:
        raise ContractViolationError(f"{where}: need 1 <= m_qubits <= n_qubits")
    _require(doc, "matrix", list, where)
    matrix = decode_matrix(doc["matrix"], 2**n, 2**m, f"{where}.matrix")
    return Isometry(m, n, matrix)


def report_to_doc(report: SequentialityReport) -> dict:
    return {
        "implementable": report.implementable,
        "per_site_residuals": [float(r) for r in report.per_site_residuals],
        "bond_dims": [int(d) for d in report.bond_dims],
        "ancilla_dim_if_yes": report.ancilla_dim_if_yes,
        "criterion_tol": float(report.criterion_tol),
    }


def plan_to_doc(
    plan: SequentialPlan,
    report: SequentialityReport,
    verification: PlanVerification,
) -> dict:
    return {
        "ancilla_dim": plan.ancilla_dim,
        "m_in": plan.m_in,
        "steps": list(plan.steps),
        "bond_dims": [int(d) for d in plan.bond_dims],
        "report": {
            "implementable": report.implementable,
            "residuals": [float(r) for r in report.per_site_residuals],
            "verification_error": float(verification.max_error),
            "verification_error_bound": float(verification.operator_norm_bound),
            "decoupling_residual": float(verification.max_decoupling_residual),
        },
    }


def doc_to_plan(doc: Any, where: str = "plan") -> SequentialPlan:
    if not isinstance(doc, dict):
        raise ContractViolationError(f"{where}: expected a JSON object")
    ancilla_dim = _require(doc, "ancilla_dim", int, where)
    m_in = _require(doc, "m_in", int, where)
    steps_doc = _require(doc, "steps", list, where)
    bond_dims = _require(doc, "bond_dims", list, where)
    if ancilla_dim < 1:
        raise ContractViolationError(f"{where}.ancilla_dim: must be positive")
    side = 2 * ancilla_dim
    steps = [
        decode_matrix(step, side, side, f"{where}.steps[{k}]")
        for k, step in enumerate(steps_doc)
    ]
    return SequentialPlan(ancilla_dim, m_in, tuple(steps), tuple(bond_dims))


def parse_document(text: str, where: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContractViolationError(
            f"{where}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
