"""Command-line front end: check, decompose, simulate, info.

Operators are given either as a builtin name or as the path of an
operator JSON file.  The builtins are ``cnot``, ``shor``, ``cloner:<n>``,
``ghz:<n>`` and ``random:<m>,<n>,<seed>``, one table of them, and
``product``, the only one that reads ``--factors``; each argument is an
ASCII decimal integer, ``-?[0-9]+``.  Exit codes: 0 on success (operator
implementable), 1 when the sequentiality criterion rejects the operator,
2 on usage, format or resource errors and on any other failure.  Standard
output carries exactly one JSON document per invocation; diagnostics go to
the error stream.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import formats
from .errors import ContractViolationError, NotImplementableError, NumericFailureError
from .linalg import ISOMETRY_TOL, RANK_TOL, reduced_density_matrix
from .sequencer import _require_simulate_fits, build_plan, sequentiality_test, simulate, verify_plan

# oplib and mps are imported by the commands that use them: simulate runs a
# plan and needs neither
if TYPE_CHECKING:
    from .oplib import Isometry

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
    from .oplib import _MAX_QUBITS

    if len(doc) > _MAX_QUBITS:  # before any entry is decoded
        raise ContractViolationError(f"at most {_MAX_QUBITS} factors supported")
    return [formats.decode_matrix(entry, 2, 2, f"{path}[{k}]") for k, entry in enumerate(doc)]


#: builtin name -> (its ``oplib`` builder, number of integer arguments)
_BUILTINS = {
    "cnot": ("cnot", 0),
    "shor": ("shor_encoder", 0),
    "cloner": ("gisin_massar_cloner", 1),
    "ghz": ("ghz_isometry", 1),
    "random": ("random_isometry", 3),
}


def load_operator(token: str, factors_path: str | None = None) -> Isometry:
    """Resolve a builtin operator name or an operator-file path; only the
    bare ``product`` builtin takes ``factors_path``."""
    if factors_path is not None and token != "product":
        raise ContractViolationError(
            f"--factors: only the 'product' builtin takes factors, not '{token}'"
        )
    from . import oplib

    name, _, arg = token.partition(":")
    if name == "product" and not arg:
        return oplib.product_unitary(_load_factors(factors_path))
    builder, arity = _BUILTINS.get(name, (None, 0))
    if builder is not None and (arity or not arg):  # `cnot:3` names a file
        if arity and not arg:
            raise ContractViolationError(f"builtin '{name}' needs arguments, e.g. {name}:3")
        values = arg.split(",") if arg else []
        malformed = f"malformed builtin arguments in '{token}'"
        # ASCII decimal integers only: int() alone also takes "1_0", " 3" and "+3"
        if len(values) != arity or not all(re.fullmatch("-?[0-9]+", x) for x in values):
            raise ContractViolationError(malformed)
        try:
            integers = [int(x) for x in values]
        except ValueError:  # past the digit limit of int()
            raise ContractViolationError(malformed) from None
        return getattr(oplib, builder)(*integers)
    doc = formats.parse_document(_read_text(token, "operator file"), token)
    return formats.doc_to_isometry(doc, where=token)


def _parse_input_state(text: str, plan) -> np.ndarray:
    text, m_in = text.strip(), plan.m_in
    if text.startswith("["):
        doc = formats.parse_document(text, "--input-state")
        if len(doc).bit_length() != m_in + 1:  # checked without forming 2**m_in
            raise ContractViolationError(f"--input-state: {len(doc)} amplitudes, not 2**{m_in}")
        # a plain number x stands for the pair [x, 0]; bools stay rejected
        pairs = [
            [x, 0] if isinstance(x, (int, float)) and not isinstance(x, bool) else x
            for x in doc
        ]
        return formats.decode_matrix([pairs], 1, 2**m_in, "--input-state")[0]
    if len(text) != m_in or any(c not in _SINGLE_QUBIT_LABELS for c in text):
        raise ContractViolationError(
            f"--input-state: expected {m_in} characters from 01+- or an amplitude list"
        )
    _require_simulate_fits(plan)  # before the state is built
    # the bytes of the np.kron chain, one outer product per qubit
    qubits = [np.array(_SINGLE_QUBIT_LABELS[c], dtype=np.complex128) for c in text]
    return functools.reduce(np.multiply.outer, qubits).ravel()


def _print_doc(doc) -> None:
    print(formats.dumps(doc))


def _cmd_check(args) -> int:
    u = load_operator(args.operator, args.factors)
    report = sequentiality_test(u)
    _print_doc(formats.report_to_doc(report))
    return 0 if report.implementable else 1


def _plan_path_fault(path: str) -> str | None:
    """Why a plan file cannot be written at ``path``, if that shows before
    any work, or None."""
    if not path:
        return "empty path"
    if Path(path).is_dir():
        return "is a directory"
    if not Path(path).parent.is_dir():
        return "no such directory"
    return None


def _cmd_decompose(args) -> int:
    fault = None if args.output is None else _plan_path_fault(args.output)
    if fault is not None:
        raise ContractViolationError(f"cannot write plan file '{args.output}': {fault}")
    u = load_operator(args.operator, args.factors)
    try:
        plan = build_plan(u)
    except NotImplementableError as exc:
        _print_doc(formats.report_to_doc(exc.report))
        return 1
    verification = verify_plan(plan, u)
    if args.output is not None:
        doc = formats.plan_to_doc(plan, verification)
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(formats.dumps(doc) + "\n")
        except OSError as exc:
            raise ContractViolationError(
                f"cannot write plan file '{args.output}': {exc}"
            ) from None
    _print_doc(
        {
            "output": args.output,
            "ancilla_dim": plan.ancilla_dim,
            "m_in": plan.m_in,
            "n_out": plan.n_out,
            "bond_dims": plan.bond_dims,
            "verification_error": verification.max_error,
            "verification_error_bound": verification.operator_norm_bound,
            "decoupling_residual": 0.0,  # a plan's chain closes at bond 1
            "criterion_tol": ISOMETRY_TOL,
            "rank_tol": RANK_TOL,
        }
    )
    return 0


def _cmd_simulate(args) -> int:
    doc = formats.parse_document(_read_text(args.plan, "plan file"), args.plan)
    plan = formats.doc_to_plan(doc, where=args.plan)
    # argparse (3.10 and 3.11 among others) drops the value of --input-state=--, leaving []
    text = "--" if args.input_state == [] else args.input_state
    amps = _parse_input_state(text, plan).view(np.float64)
    top = float(np.abs(amps).max())
    if top == 0.0:
        raise ContractViolationError("--input-state: state has zero norm")
    # scaled by a power of two to a largest |re| or |im| in [2**299, 2**300),
    # so that the norm neither overflows nor underflows.  Scaling up is
    # exact; scaling down rounds only entries below 2**-1321 times the
    # largest, which normalize to 0 either way
    amps = np.ldexp(amps, 300 - math.frexp(top)[1]).view(np.complex128)
    if args.reduce is not None and not 1 <= args.reduce <= plan.n_out:
        raise ContractViolationError(f"--reduce: site {args.reduce} out of range 1..{plan.n_out}")
    state = simulate(plan, amps / np.linalg.norm(amps))
    out: dict = {"decoupling_residual": 0.0}  # a plan's chain closes at bond 1
    if args.reduce is not None:
        rho = reduced_density_matrix(state, [2] * plan.n_out, args.reduce - 1)
        out["site"] = args.reduce
        out["reduced_density_matrix"] = rho
    else:
        out["amplitudes"] = state
    _print_doc(out)
    return 0


def _cmd_info(args) -> int:
    from . import mps

    u = load_operator(args.operator, args.factors)
    op_mps, weights = mps.operator_to_mps(u)
    canonical = mps.check_canonical(op_mps, weights)
    doc = {
        "m_qubits": u.m_in,
        "n_qubits": u.n_out,
        "bond_dims": op_mps.bond_dims,
        "max_bond_dim": op_mps.max_bond_dim,
        # for a square operator the fused cuts are the operator cuts
        "schmidt_ranks": op_mps.bond_dims[1:-1] if u.is_unitary and u.n_out > 1 else None,
        "canonical_residuals": canonical._asdict(),
        "rank_tol": RANK_TOL,
    }
    _print_doc(doc)
    return 0


def _add_operator_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("operator", help="builtin name or operator JSON file")
    sub.add_argument(
        "--factors",
        default=None,
        help="JSON file with 2x2 unitary factors for the 'product' builtin",
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ContractViolationError, NumericFailureError) as exc:
        _print_error(str(exc))
        return 2
    except Exception as exc:  # exit 1 means "rejected", so nothing else may leak out
        _print_error(f"{type(exc).__name__}: {exc}")
        return 2


def _print_error(message: str) -> None:
    """One ``error:`` line on stderr, if it can take one; nothing else depends on it."""
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass


def _stdout_fault() -> str | None:
    """Flush standard output: why it could not take the output, or None."""
    if sys.stdout is None:  # the process started with descriptor 1 closed
        return "standard output is closed"
    try:
        sys.stdout.flush()
    except OSError as exc:  # a full device, or a reader that went away
        return f"cannot write standard output: {exc}"
    return None


def entry_point() -> None:
    """The ``seqdecomp`` command: :func:`main` on ``sys.argv``, then exit.

    The process ends with ``os._exit`` as soon as its output is flushed,
    argparse's exits included, so it skips the interpreter's teardown.  A
    standard output that cannot take the document fails like any other
    error: one ``error:`` line on stderr and exit 2.  A closed or
    unwritable stderr loses that line, and changes nothing else.
    """
    if sys.stderr is None:  # descriptor 2 closed: print and argparse would write to stdout
        sys.stderr = io.StringIO()
    try:
        code = main()
    except SystemExit as exc:  # argparse, which has printed what it had to
        code = exc.code
    fault = _stdout_fault()
    if fault is not None and code != 2:  # a 2 from main has printed its error line
        code = 2
        _print_error(fault)
    try:
        sys.stderr.flush()
    except OSError:  # the line stays unwritten; the interpreter would exit 120 over it
        pass
    os._exit(code)


if __name__ == "__main__":
    entry_point()
