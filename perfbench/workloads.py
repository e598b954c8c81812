"""Seeded request lists for the seqdecomp benchmark.

A workload is a fixed list of CLI requests whose sizes do not depend on the
seed; the seed only picks the random operators' seeds, the product factors,
the input states and the request order.  This module imports numpy but never
seqdecomp, so the set-up script and the reference answers in ``gate`` share
one definition of the inputs without going through the library.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("encoders", "wide", "replay")

#: Requests per pass in the measured (non-smoke) lists.  With 40 requests the
#: 75th percentile is the highest one with at least ten samples beyond it.
REQUESTS_PER_PASS = 40
HIGH_PERCENTILE = 75

#: Weights of the in-process speed reference's parts (SVD, interpreter loop,
#: JSON round trip; see ``speed.kernel_task``), after what each workload's
#: traced time is spent on at the seed commit.  ``wide`` is dense linear
#: algebra (97% in oplib, mps, linalg, the criterion and verification), so
#: only the SVD follows it; with equal weights its ``suite_s`` spread 12%
#: over five runs, against 4% with the SVD alone.  ``replay`` is mostly
#: JSON parsing of plans, and ``encoders`` mixes Haar draws, plan writing
#: and small requests, so both take all three parts equally.
KERNEL_WEIGHTS = {
    "encoders": (1.0, 1.0, 1.0),
    "wide": (1.0, 0.0, 0.0),
    "replay": (1.0, 1.0, 1.0),
}


@dataclass(frozen=True)
class Request:
    rid: int
    command: str  # check | decompose | info | simulate
    operator: str  # builtin token; "product:<n>" stands for product --factors
    argv: tuple[str, ...]
    output: str | None = None  # plan path written by decompose -o
    input_state: str | None = None  # simulate --input-state text
    reduce: int | None = None  # simulate --reduce site (1-based)

    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    workdir: Path
    requests: list[Request]
    factors: dict[str, list[np.ndarray]] = field(default_factory=dict)
    plans: dict[str, Path] = field(default_factory=dict)  # operator -> plan file

    def factors_path(self, operator: str) -> Path:
        return self.workdir / f"factors-{operator.split(':')[1]}.json"

    def operator_args(self, operator: str) -> list[str]:
        if operator.startswith("product:"):
            return ["product", "--factors", str(self.factors_path(operator))]
        return [operator]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """QR of a complex Gaussian matrix with a real positive diagonal of R."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _random_label(rng: np.random.Generator, m: int) -> str:
    return "".join(rng.choice(list("01+-"), size=m))


def _random_amplitudes(rng: np.random.Generator, m: int) -> str:
    z = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
    return json.dumps([[float(a.real), float(a.imag)] for a in z])


def _encoders(rng, smoke):
    seeds = iter(int(s) for s in rng.integers(10**9, 2**31, size=16))
    if smoke:
        ops = ["shor", "ghz:4", "cloner:2", f"random:1,4,{next(seeds)}"]
    else:
        ops = ["shor", "ghz:3", "ghz:4", "ghz:6", "ghz:8", "ghz:10"]
        ops += [f"cloner:{n}" for n in (2, 3, 4, 5)]
        ops += [f"random:1,{n},{next(seeds)}" for n in (2, 3, 4, 5, 6, 7, 8, 9, 9, 10)]
    order = rng.permutation(len(ops))
    # every operator is checked, then decomposed to a plan file
    return [(cmd, ops[k]) for k in order for cmd in ("check", "decompose")], []


# (command set, operator) for ``wide``; "random:M,N" gets a seeded third field
_WIDE = [
    ("cdi", "cnot"),
    ("d", "product:10"),
    ("c", "product:9"),
    ("cdi", "product:8"),
    ("cdi", "product:6"),
    ("cdi", "product:4"),
    ("cdi", "product:2"),
    ("cdi", "random:2,9"),
    ("ci", "random:3,9"),
    ("cd", "random:5,9"),
    ("cdi", "random:2,8"),
    ("ci", "random:4,8"),
    ("cd", "random:6,8"),
    ("ci", "random:3,7"),
    ("cdi", "random:7,7"),
    ("cd", "random:2,5"),
    ("ci", "random:4,6"),
]
_WIDE_SMOKE = [("c", "cnot"), ("cdi", "product:3"), ("ci", "random:2,4")]
_COMMANDS = {"c": "check", "d": "decompose", "i": "info"}


def _wide(rng, smoke):
    out = []
    for cmds, op in _WIDE_SMOKE if smoke else _WIDE:
        if op.startswith("random:"):
            op = f"{op},{int(rng.integers(10**9, 2**31))}"
        out += [(_COMMANDS[c], op) for c in cmds]
    return [out[k] for k in rng.permutation(len(out))], []


_REPLAY_PLANS = [
    "random:1,10",
    "random:1,7",
    "cloner:5",
    "cloner:3",
    "shor",
    "ghz:6",
    "product:9",
    "product:5",
]
_REPLAY_SMOKE = ["shor", "product:3"]


def _replay(rng, smoke):
    plans = []
    for op in _REPLAY_SMOKE if smoke else _REPLAY_PLANS:
        if op.startswith("random:"):
            op = f"{op},{int(rng.integers(10**9, 2**31))}"
        plans.append(op)
    # per plan: labels, amplitude lists, with and without --reduce
    shapes = ("label", "label+reduce") if smoke else (
        "label", "label", "label+reduce", "amps", "amps+reduce"
    )
    out = [("simulate", op, shape) for op in plans for shape in shapes]
    return [out[k] for k in rng.permutation(len(out))], plans


def _m_in(operator: str) -> int:
    name, _, arg = operator.partition(":")
    if name == "random":
        return int(arg.split(",")[0])
    if name == "product":
        return int(arg)
    return 1


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """The workload's request list and inputs; the same seed gives the same list."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    workdir = Path(workdir)
    items, plan_ops = {"encoders": _encoders, "wide": _wide, "replay": _replay}[name](
        rng, smoke
    )
    wl = Workload(workdir, [])
    for op in sorted({item[1] for item in items} | set(plan_ops)):
        if op.startswith("product:"):
            n = int(op.split(":")[1])
            wl.factors[op] = [haar_unitary(2, rng) for _ in range(n)]
    for op in plan_ops:
        wl.plans[op] = workdir / f"plan-{op.replace(':', '-').replace(',', '-')}.json"
    for rid, item in enumerate(items):
        command, op = item[0], item[1]
        if command == "simulate":
            shape = item[2]
            m = _m_in(op)
            text = (
                _random_amplitudes(rng, m) if shape.startswith("amps") else _random_label(rng, m)
            )
            reduce = int(rng.integers(1, _n_out(op) + 1)) if shape.endswith("+reduce") else None
            # one token, so a label such as "-+" is not taken for an option
            argv = ["simulate", str(wl.plans[op]), f"--input-state={text}"]
            if reduce is not None:
                argv += ["--reduce", str(reduce)]
            wl.requests.append(Request(rid, command, op, tuple(argv), None, text, reduce))
        else:
            argv = [command, *wl.operator_args(op)]
            output = None
            if command == "decompose" and name == "encoders":
                # wide decomposes without -o, so it writes only small reports
                output = str(workdir / f"out-{rid}.json")
                argv += ["-o", output]
            wl.requests.append(Request(rid, command, op, tuple(argv), output))
    if not smoke and len(wl.requests) != REQUESTS_PER_PASS:
        raise RuntimeError(f"{name} has {len(wl.requests)} requests, not {REQUESTS_PER_PASS}")
    return wl


def _n_out(operator: str) -> int:
    name, _, arg = operator.partition(":")
    if name == "shor":
        return 9
    if name == "cnot":
        return 2
    if name == "ghz" or name == "product":
        return int(arg)
    if name == "cloner":
        return 2 * int(arg) - 1
    return int(arg.split(",")[1])


def _encode_matrix(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def write_factor_files(wl: Workload) -> None:
    """Write each product's 2x2 factors as the JSON list ``--factors`` reads."""
    for op, factors in wl.factors.items():
        text = json.dumps([_encode_matrix(f) for f in factors])
        wl.factors_path(op).write_text(text + "\n", encoding="utf-8")
