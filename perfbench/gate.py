"""Reference answers and the correctness gate.

Operators are rebuilt from their definitions with numpy alone.  Verdicts and
ancilla dimensions come from the paper's facts, not from the library: every
``1 -> N`` isometry is implementable, with ancilla equal to the largest dense
Schmidt rank of the fused vector; a tensor product of single-qubit unitaries
is implementable with ancilla 1; CNOT and Haar-random ``M >= 2`` operators
are rejected.  Schmidt ranks are counted by direct SVDs of reshaped dense
arrays, never by the library's canonicalization sweeps.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import Request, Workload, haar_unitary

#: Largest accepted verification error and simulation deviation.
TOL = 1e-10
#: Relative singular-value cutoff, the CLI's default --rank-tol.
RANK_TOL = 1e-10

_LABELS = {
    "0": np.array([1.0, 0.0]),
    "1": np.array([0.0, 1.0]),
    "+": np.array([1.0, 1.0]) / math.sqrt(2.0),
    "-": np.array([1.0, -1.0]) / math.sqrt(2.0),
}


def _ghz(n: int, sign: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[0], v[-1] = 1 / math.sqrt(2.0), sign / math.sqrt(2.0)
    return v


def _dicke(n: int, ones: int) -> np.ndarray:
    weights = np.array([bin(i).count("1") for i in range(2**n)])
    return (weights == ones) / math.sqrt(math.comb(n, ones))


def _cloner(n: int) -> np.ndarray:
    """Optimal symmetric 1 -> 2n-1 cloner: clones first, anticlones after."""
    cols = []
    for flip in (False, True):
        col = np.zeros(2 ** (2 * n - 1), dtype=complex)
        for j in range(n):
            alpha = math.sqrt(2.0 * (n - j) / (n * (n + 1)))
            clones = _dicke(n, n - j if flip else j)
            anti = _dicke(n - 1, j if flip else n - 1 - j) if n > 1 else np.ones(1)
            col += alpha * np.kron(clones, anti)
        cols.append(col)
    return np.stack(cols, axis=1)


def reference_matrix(operator: str, factors=None) -> np.ndarray:
    """Dense (2**n, 2**m) matrix of a builtin operator, rows big-endian."""
    name, _, arg = operator.partition(":")
    if name == "cnot":
        return np.eye(4, dtype=complex)[:, [0, 1, 3, 2]]
    if name == "shor":
        cols = [np.kron(np.kron(_ghz(3, s), _ghz(3, s)), _ghz(3, s)) for s in (1, -1)]
        return np.stack(cols, axis=1)
    if name == "ghz":
        return np.stack([_ghz(int(arg), 1), _ghz(int(arg), -1)], axis=1)
    if name == "cloner":
        return _cloner(int(arg))
    if name == "product":
        total = np.eye(1, dtype=complex)
        for f in factors:
            total = np.kron(total, f)
        return total
    if name == "random":
        m, n, seed = (int(x) for x in arg.split(","))
        return haar_unitary(2**n, np.random.default_rng(seed))[:, : 2**m]
    raise ValueError(f"no reference for {operator!r}")


def _rank(a: np.ndarray) -> int:
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


def fused_cut_ranks(u: np.ndarray, m: int, n: int) -> tuple[int, ...]:
    """Schmidt ranks of the vector that fuses input leg k with output leg k."""
    order = [ax for k in range(m) for ax in (k, n + k)] + list(range(m, n))
    vec = u.reshape([2] * (n + m)).transpose(order).reshape(-1)
    dims = [4] * m + [2] * (n - m)
    return tuple(_rank(vec.reshape(math.prod(dims[:c]), -1)) for c in range(1, n))


def operator_schmidt_ranks(u: np.ndarray, n: int) -> tuple[int, ...]:
    """Ranks of a square unitary reshuffled across each contiguous cut."""
    out = []
    for c in range(1, n):
        t = u.reshape(2**c, 2 ** (n - c), 2**c, 2 ** (n - c)).transpose(0, 2, 1, 3)
        out.append(_rank(t.reshape(4**c, 4 ** (n - c))))
    return tuple(out)


@dataclass(frozen=True)
class Facts:
    """What a correct run reports about one operator."""

    m: int
    n: int
    implementable: bool
    bond_dims: tuple[int, ...]  # boundaries included
    schmidt_ranks: tuple[int, ...] | None  # info, square operators with n > 1
    matrix: np.ndarray

    @property
    def ancilla(self) -> int:
        return max(self.bond_dims)


def operator_facts(operator: str, factors=None) -> Facts:
    u = reference_matrix(operator, factors)
    n = int(u.shape[0]).bit_length() - 1
    m = int(u.shape[1]).bit_length() - 1
    if operator.startswith("product:"):
        # a product of single-qubit unitaries has every rank equal to 1
        ranks, schmidt, ok = (1,) * (n - 1), (1,) * (n - 1), True
    else:
        ranks = fused_cut_ranks(u, m, n)
        schmidt = operator_schmidt_ranks(u, n) if m == n and n > 1 else None
        # 1 -> N is always implementable; cnot and Haar-random M >= 2 never are
        ok = m == 1
    return Facts(m, n, ok, (1, *ranks, 1), schmidt, u)


def expected_state(facts: Facts, request: Request) -> np.ndarray:
    """U psi for a simulate request, with psi normalized as the CLI does."""
    text = request.input_state.strip()
    if text.startswith("["):
        psi = np.array([complex(re, im) for re, im in json.loads(text)])
    else:
        psi = np.ones(1, dtype=complex)
        for c in text:
            psi = np.kron(psi, _LABELS[c])
    return facts.matrix @ (psi / np.linalg.norm(psi))


def reduced_rho(state: np.ndarray, n: int, site: int) -> np.ndarray:
    """Reduced density matrix of chain site ``site`` (1-based), by index sums."""
    t = state.reshape(2 ** (site - 1), 2, 2 ** (n - site))
    return np.einsum("aib,ajb->ij", t, t.conj())


@dataclass
class Expectation:
    exit_code: int
    facts: Facts
    state: np.ndarray | None = None  # simulate: U psi


def expectations(wl: Workload) -> dict[int, Expectation]:
    facts = {}
    out = {}
    for req in wl.requests:
        if req.operator not in facts:
            facts[req.operator] = operator_facts(req.operator, wl.factors.get(req.operator))
        f = facts[req.operator]
        if req.command == "simulate":
            out[req.rid] = Expectation(0, f, expected_state(f, req))
        elif req.command == "info":
            out[req.rid] = Expectation(0, f)
        else:
            out[req.rid] = Expectation(0 if f.implementable else 1, f)
    return out


def _single_document(stdout: bytes):
    text = stdout.decode("utf-8")
    doc, end = json.JSONDecoder().raw_decode(text.lstrip())
    if text.lstrip()[end:].strip():
        raise ValueError("trailing output after the JSON document")
    return doc


def check(req: Request, exp: Expectation, rc, stdout: bytes, stderr: bytes):
    """Problems with one response (empty when correct) and its fingerprint.

    The fingerprint is the stdout bytes plus, for ``decompose -o``, a digest
    of the plan file; a repeated request must reproduce it exactly.
    """
    fingerprint = stdout
    if req.output is not None and Path(req.output).is_file():
        fingerprint += hashlib.sha256(Path(req.output).read_bytes()).digest()
    problems = []
    if rc != exp.exit_code:
        problems.append(f"exit code {rc}, expected {exp.exit_code}")
    if b"Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        doc = _single_document(stdout)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
        return problems + [f"stdout is not one JSON document: {exc}"], fingerprint
    try:
        problems += _check_doc(req, exp, doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed result document: {exc!r}")
    return problems, fingerprint


def _check_doc(req: Request, exp: Expectation, doc) -> list[str]:
    f = exp.facts
    bad = []

    def expect(what, got, want):
        if got != want:
            bad.append(f"{what} {got!r}, expected {want!r}")

    if req.command == "simulate":
        if not doc["decoupling_residual"] <= TOL:
            bad.append(f"decoupling residual {doc['decoupling_residual']:.3e}")
        if req.reduce is None:
            got = np.array([complex(re, im) for re, im in doc["amplitudes"]])
            want = exp.state
        else:
            expect("site", doc["site"], req.reduce)
            got = np.array([[complex(re, im) for re, im in row] for row in doc["reduced_density_matrix"]])
            want = reduced_rho(exp.state, f.n, req.reduce)
        if got.shape != want.shape or not np.linalg.norm(got - want) <= TOL:
            bad.append("simulated output differs from U psi")
        return bad
    if req.command == "info":
        expect("m_qubits", doc["m_qubits"], f.m)
        expect("n_qubits", doc["n_qubits"], f.n)
        expect("bond_dims", tuple(doc["bond_dims"]), f.bond_dims)
        expect("max_bond_dim", doc["max_bond_dim"], f.ancilla)
        ranks = doc["schmidt_ranks"]
        expect("schmidt_ranks", None if ranks is None else tuple(ranks), f.schmidt_ranks)
        return bad
    expect("bond_dims", tuple(doc["bond_dims"]), f.bond_dims)
    if req.command == "check" or not f.implementable:
        expect("implementable", doc["implementable"], f.implementable)
        expect("ancilla_dim_if_yes", doc["ancilla_dim_if_yes"], f.ancilla)
        return bad
    expect("ancilla_dim", doc["ancilla_dim"], f.ancilla)
    expect("m_in", doc["m_in"], f.m)
    expect("n_out", doc["n_out"], f.n)
    expect("output", doc["output"], req.output)
    if not doc["verification_error"] <= TOL:
        bad.append(f"verification error {doc['verification_error']:.3e}")
    if req.output is not None:
        plan = json.loads(Path(req.output).read_text(encoding="utf-8"))
        expect("plan ancilla_dim", plan["ancilla_dim"], f.ancilla)
        expect("plan steps", len(plan["steps"]), f.n)
    return bad
