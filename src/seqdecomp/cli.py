"""Command-line front end: check, decompose, simulate, info.

Operators are given either as a builtin name (``cnot``, ``shor``,
``cloner:<n>``, ``ghz:<n>``, ``random:<m>,<n>,<seed>``, ``product``) or as
the path of an operator JSON file.  Exit codes: 0 on success (operator
implementable), 1 when the sequentiality criterion rejects the operator,
2 on usage, format or resource errors and on any other failure.  Standard
output carries exactly one JSON document per invocation; diagnostics go to
the error stream.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import formats
from .errors import (
    ContractViolationError,
    InternalConsistencyError,
    NotImplementableError,
    NumericFailureError,
)
from .linalg import DEFAULT_RANK_TOL, reduced_density_matrix
from .mps import check_canonical, operator_to_mps
from .oplib import (
    Isometry,
    cnot,
    ghz_isometry,
    gisin_massar_cloner,
    product_unitary,
    random_isometry,
    shor_encoder,
)
from .sequencer import (
    DEFAULT_CRITERION_TOL,
    build_plan,
    sequentiality_test,
    simulate,
    verify_plan,
)

_SINGLE_QUBIT_LABELS = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    "-": (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)),
}


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ContractViolationError(f"cannot read {what} '{path}': {exc}") from None


def _load_factors(path: str | None) -> list[np.ndarray]:
    if path is None:
        # bare `product` defaults to two identity factors
        return [np.eye(2, dtype=np.complex128)] * 2
    doc = formats.parse_document(_read_text(path, "factor file"), path)
    if not isinstance(doc, list) or not doc:
        raise ContractViolationError(f"{path}: expected a nonempty JSON list of 2x2 matrices")
    return [
        formats.decode_matrix(entry, 2, 2, f"{path}[{k}]") for k, entry in enumerate(doc)
    ]


_NUMERIC_BUILTINS = {
    "cloner": (gisin_massar_cloner, 1),
    "ghz": (ghz_isometry, 1),
    "random": (random_isometry, 3),
}


def load_operator(token: str, factors_path: str | None = None) -> Isometry:
    """Resolve a builtin operator name or an operator-file path."""
    name, _, arg = token.partition(":")
    if name == "cnot" and not arg:
        return cnot()
    if name == "shor" and not arg:
        return shor_encoder()
    if name == "product" and not arg:
        return product_unitary(_load_factors(factors_path))
    if name in _NUMERIC_BUILTINS:
        builder, arity = _NUMERIC_BUILTINS[name]
        if not arg:
            raise ContractViolationError(f"builtin '{name}' needs arguments, e.g. {name}:3")
        try:
            values = [int(x) for x in arg.split(",")]
        except ValueError:
            values = []
        if len(values) != arity:
            raise ContractViolationError(f"malformed builtin arguments in '{token}'")
        return builder(*values)
    doc = formats.parse_document(_read_text(token, "operator file"), token)
    return formats.doc_to_isometry(doc, where=token)


def _parse_input_state(text: str, m_in: int) -> np.ndarray:
    text = text.strip()
    if text.startswith("["):
        doc = formats.parse_document(text, "--input-state")
        if not isinstance(doc, list) or len(doc) != 2**m_in:
            raise ContractViolationError(
                f"--input-state: expected {2**m_in} amplitudes"
            )
        amps = np.zeros(2**m_in, dtype=np.complex128)
        for k, entry in enumerate(doc):
            if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                amps[k] = float(entry)
            elif (
                isinstance(entry, list)
                and len(entry) == 2
                and all(isinstance(x, (int, float)) for x in entry)
            ):
                amps[k] = complex(float(entry[0]), float(entry[1]))
            else:
                raise ContractViolationError(
                    f"--input-state[{k}]: expected a number or an [re, im] pair"
                )
        return amps
    if len(text) != m_in or any(c not in _SINGLE_QUBIT_LABELS for c in text):
        raise ContractViolationError(
            f"--input-state: expected {m_in} characters from 01+- or an amplitude list"
        )
    amps = np.ones(1, dtype=np.complex128)
    for c in text:
        amps = np.kron(amps, np.array(_SINGLE_QUBIT_LABELS[c], dtype=np.complex128))
    return amps


def _print_doc(doc) -> None:
    print(formats.dumps(doc))


def _cmd_check(args) -> int:
    u = load_operator(args.operator, args.factors)
    report = sequentiality_test(u, tol=args.crit_tol, rank_tol=args.rank_tol)
    doc = formats.report_to_doc(report)
    doc["rank_tol"] = float(args.rank_tol)
    _print_doc(doc)
    return 0 if report.implementable else 1


def _cmd_decompose(args) -> int:
    u = load_operator(args.operator, args.factors)
    try:
        plan = build_plan(u, tol=args.crit_tol, rank_tol=args.rank_tol)
    except NotImplementableError as exc:
        doc = formats.report_to_doc(exc.report)
        doc["rank_tol"] = float(args.rank_tol)
        _print_doc(doc)
        return 1
    verification = verify_plan(plan, u)
    if args.output:
        text = formats.dumps(formats.plan_to_doc(plan, plan.report, verification))
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    _print_doc(
        {
            "output": args.output,
            "ancilla_dim": plan.ancilla_dim,
            "m_in": plan.m_in,
            "n_out": plan.n_out,
            "bond_dims": [int(d) for d in plan.bond_dims],
            "verification_error": float(verification.max_error),
            "verification_error_bound": float(verification.operator_norm_bound),
            "decoupling_residual": float(verification.max_decoupling_residual),
            "criterion_tol": float(args.crit_tol),
            "rank_tol": float(args.rank_tol),
        }
    )
    return 0


def _cmd_simulate(args) -> int:
    doc = formats.parse_document(_read_text(args.plan, "plan file"), args.plan)
    plan = formats.doc_to_plan(doc, where=args.plan)
    amps = _parse_input_state(args.input_state, plan.m_in)
    nrm = float(np.linalg.norm(amps))
    if nrm == 0.0:
        raise ContractViolationError("--input-state: state has zero norm")
    state, residual = simulate(plan, amps / nrm)
    out: dict = {"decoupling_residual": residual}
    if args.reduce is not None:
        if not 1 <= args.reduce <= plan.n_out:
            raise ContractViolationError(
                f"--reduce: site {args.reduce} out of range 1..{plan.n_out}"
            )
        rho = reduced_density_matrix(state, [2] * plan.n_out, args.reduce - 1)
        out["site"] = args.reduce
        out["reduced_density_matrix"] = formats.encode_matrix(rho)
    else:
        out["amplitudes"] = [[float(a.real), float(a.imag)] for a in state]
    _print_doc(out)
    return 0


def _cmd_info(args) -> int:
    u = load_operator(args.operator, args.factors)
    op_mps, weights = operator_to_mps(u, rank_tol=args.rank_tol)
    canonical = check_canonical(op_mps, weights)
    doc = {
        "m_qubits": u.m_in,
        "n_qubits": u.n_out,
        "bond_dims": [int(d) for d in op_mps.bond_dims],
        "max_bond_dim": op_mps.max_bond_dim,
        # for a square operator the fused cuts are the operator cuts
        "schmidt_ranks": (
            [int(d) for d in op_mps.bond_dims[1:-1]] if u.is_unitary and u.n_out > 1 else None
        ),
        "canonical_residuals": {
            "left_normalization": float(canonical.left_normalization),
            "weight_transport": float(canonical.weight_transport),
            "weight_validity": float(canonical.weight_validity),
        },
        "rank_tol": float(args.rank_tol),
    }
    _print_doc(doc)
    return 0


def _tolerance(text: str, *, positive: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: '{text}'") from None
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        bound = "> 0" if positive else ">= 0"
        raise argparse.ArgumentTypeError(f"must be finite and {bound}, got '{text}'")
    return value


def _add_operator_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("operator", help="builtin name or operator JSON file")
    sub.add_argument(
        "--factors",
        default=None,
        help="JSON file with 2x2 unitary factors for the 'product' builtin",
    )
    sub.add_argument(
        "--rank-tol",
        type=functools.partial(_tolerance, positive=False),
        default=DEFAULT_RANK_TOL,
        help="relative singular-value cutoff, finite and >= 0 (default %(default)g)",
    )
    sub.add_argument(
        "--crit-tol",
        type=functools.partial(_tolerance, positive=True),
        default=DEFAULT_CRITERION_TOL,
        help="criterion residual tolerance, finite and > 0 (default %(default)g)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqdecomp",
        description="Sequential qubit-ancilla decomposition of multiqubit isometries.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="test sequential implementability")
    _add_operator_arguments(check)
    check.set_defaults(handler=_cmd_check)

    decompose = subs.add_parser("decompose", help="synthesize and verify a plan")
    _add_operator_arguments(decompose)
    decompose.add_argument("-o", "--output", default=None, help="plan file to write")
    decompose.set_defaults(handler=_cmd_decompose)

    sim = subs.add_parser("simulate", help="run a plan file on an input state")
    sim.add_argument("plan", help="plan JSON file")
    sim.add_argument(
        "--input-state",
        default=None,
        required=True,
        help=(
            "basis/label string over 01+- or a JSON amplitude list; write a "
            "value that starts with '-' as --input-state=-+"
        ),
    )
    sim.add_argument(
        "--reduce",
        type=int,
        default=None,
        metavar="SITE",
        help="output the reduced density matrix of this chain site (1-based)",
    )
    sim.set_defaults(handler=_cmd_simulate)

    info = subs.add_parser("info", help="canonical-form diagnostics for an operator")
    _add_operator_arguments(info)
    info.set_defaults(handler=_cmd_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ContractViolationError, NumericFailureError, InternalConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "rejected", so nothing else may leak out
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
