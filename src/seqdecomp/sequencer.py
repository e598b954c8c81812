"""Decide single-pass implementability and synthesize the step unitaries.

A sequential decomposition of an ``M -> N`` qubit isometry is an ordered
list of unitaries ``V[1..N]``, each acting once on (ancilla, site k), that
reproduces the isometry on the chain with the ancilla starting and ending
in a fixed basis state.  Such a decomposition exists exactly when, in any
canonical matrix-product form of the operator, the input-carrying site
tensors are isometric separately for each input value:

    sum_i  A[k][2*i + j]†  A[k][2*i + j']  =  delta_{j j'} * identity / 2

for every input site ``k`` (the factor 1/2 reflects the unit-norm gauge of
the stored tensors).  Equivalently, the defined columns ``Q`` of step ``k``,
read directly off the site tensor, are orthonormal; the residual reported
for input site ``k`` is ``||Q† Q - I||_2``.  When the criterion holds, the
remaining columns of each step are filled by deterministic unitary
completion, and the ancilla dimension equals the maximal canonical bond
dimension, which is optimal.

For square (``M = N``) operators the criterion holds only for tensor
products of single-qubit unitaries, equivalently for operators whose
operator Schmidt rank is 1 across every contiguous cut; see
:func:`operator_schmidt_ranks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NotImplementableError
from .linalg import DEFAULT_RANK_TOL, complete_to_unitary, dagger, isometry_residual, regroup, svd
from .mps import Mps, STATE_NORM_TOL, operator_to_mps
from .oplib import Isometry

#: Residual above which the sequentiality criterion counts as violated.
#: Genuine failures (entangling square unitaries) sit at order 1.
DEFAULT_CRITERION_TOL = 1e-8

#: Unitarity slack allowed on synthesized or loaded step matrices.
STEP_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class SequentialityReport:
    """Outcome of the sequential-implementability test.

    ``per_site_residuals`` holds, for each input site, ``||Q† Q - I||_2`` of
    the defined columns ``Q`` of that site's step unitary (see the module
    docstring); the verdict is positive exactly when all of them stay below
    ``criterion_tol``.
    ``ancilla_dim_if_yes`` is the ancilla dimension a synthesized plan would
    use, namely the maximal canonical bond dimension.
    """

    implementable: bool
    per_site_residuals: tuple[float, ...]
    bond_dims: tuple[int, ...]
    ancilla_dim_if_yes: int
    criterion_tol: float


@dataclass(frozen=True)
class SequentialPlan:
    """Synthesized sequential decomposition.

    ``steps[k]`` acts on ancilla (x) site ``k + 1``; the composite index is
    ``ancilla_index * 2 + site_index``.  The ancilla starts and ends in
    basis state 0.  The first ``m_in`` steps consume one input qubit each;
    later steps expect their chain qubit in state |0>.  ``bond_dims`` lists
    the ``N + 1`` canonical bond dimensions: integers from 1 to
    ``ancilla_dim``, with both boundaries 1.  ``report`` is the criterion
    report a plan was built from; a plan read from a file has none.
    """

    ancilla_dim: int
    m_in: int
    steps: tuple[np.ndarray, ...]
    bond_dims: tuple[int, ...]
    report: SequentialityReport | None = None

    def __post_init__(self):
        if not 1 <= self.m_in <= len(self.steps):
            raise ContractViolationError(
                f"m_in={self.m_in} out of range for {len(self.steps)} steps"
            )
        bonds = self.bond_dims
        if len(bonds) != len(self.steps) + 1 or bonds[0] != 1 or bonds[-1] != 1 or not all(
            isinstance(d, (int, np.integer)) and not isinstance(d, bool) and 1 <= d <= self.ancilla_dim
            for d in bonds
        ):
            raise ContractViolationError(
                f"bond_dims must be {len(self.steps) + 1} integers from 1 to the ancilla "
                f"dimension {self.ancilla_dim}, with both boundaries 1; got {list(bonds)}"
            )
        side = 2 * self.ancilla_dim
        arrays = []
        for k, step in enumerate(self.steps):
            a = np.array(step, dtype=np.complex128)
            if a.shape != (side, side):
                raise ContractViolationError(
                    f"step {k + 1}: shape {a.shape}, expected {(side, side)}"
                )
            residual = isometry_residual(a, STEP_UNITARY_TOL)
            if residual > STEP_UNITARY_TOL:
                raise ContractViolationError(
                    f"step {k + 1} is not unitary: residual {residual:.3e}"
                )
            a.setflags(write=False)
            arrays.append(a)
        object.__setattr__(self, "steps", tuple(arrays))

    @property
    def n_out(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class PlanVerification:
    """Exact-simulation check of a plan against its target isometry.

    ``max_error`` is the worst 2-norm distance, over all computational basis
    inputs, between the simulated joint state and (decoupled ancilla) x
    (target output); it subsumes the decoupling residual.  By linearity,
    ``operator_norm_bound = max_error * sqrt(2**m_in)`` bounds the error for
    every input state.
    """

    max_error: float
    max_decoupling_residual: float
    operator_norm_bound: float


def _defined_columns(t: np.ndarray, fused: bool) -> np.ndarray:
    """The columns of a step unitary fixed by one canonical site tensor.

    Row ``2 * a + i`` pairs right bond index ``a`` with output ``i``.  On an
    input site, column ``2 * r + j`` pairs left bond index ``r`` with input
    ``j`` and the tensor is rescaled by sqrt(2) to undo the unit-norm gauge;
    on the other sites, column ``r`` takes the chain qubit in state |0>.
    """
    _, rgt, lft = t.shape
    if fused:
        q = (math.sqrt(2.0) * t).reshape(2, 2, rgt, lft).transpose(2, 0, 3, 1)
        return q.reshape(2 * rgt, 2 * lft)
    return t.transpose(1, 0, 2).reshape(2 * rgt, lft)


def _isometry_defect(q: np.ndarray) -> float:
    """``||q† q - I||_2``, exactly, from the spectrum of the smaller Gram matrix.

    ``q† q`` and ``q q†`` share their nonzero eigenvalues; a wide ``q`` adds
    zero eigenvalues to ``q† q``, each a defect of exactly 1.
    """
    rows, cols = q.shape
    g = dagger(q) @ q if rows >= cols else q @ dagger(q)
    defect = float(np.max(np.abs(np.linalg.eigvalsh(g - np.eye(g.shape[0])))))
    return defect if rows >= cols else max(defect, 1.0)


def _criterion(op: Mps, tol: float) -> tuple[tuple[np.ndarray, ...], SequentialityReport]:
    """Defined columns of every step of a canonical chain, and the verdict on them."""
    blocks = tuple(_defined_columns(t, k < op.m_in) for k, t in enumerate(op.tensors))
    residuals = tuple(_isometry_defect(q) for q in blocks[: op.m_in])
    report = SequentialityReport(
        implementable=max(residuals) < tol,
        per_site_residuals=residuals,
        bond_dims=op.bond_dims,
        ancilla_dim_if_yes=op.max_bond_dim,
        criterion_tol=tol,
    )
    return blocks, report


def sequentiality_test(
    u: Isometry,
    tol: float = DEFAULT_CRITERION_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> SequentialityReport:
    """Test whether the isometry admits a single-pass sequential decomposition.

    The verdict does not depend on which canonical form is used, so a single
    canonicalization decides it.  For ``m_in == 1`` the criterion holds
    automatically and the verdict is always positive.
    """
    return _criterion(operator_to_mps(u, rank_tol)[0], tol)[1]


def build_plan(
    u: Isometry,
    tol: float = DEFAULT_CRITERION_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> SequentialPlan:
    """Synthesize the minimal-ancilla sequential decomposition.

    The ancilla dimension is the maximal canonical bond dimension.  Each
    step's defined columns come straight from the canonical site tensors
    (input sites are rescaled by sqrt(2) per site to undo the unit-norm
    gauge); bond spaces smaller than the ancilla are embedded by zero
    padding, and the undefined columns are filled by deterministic unitary
    completion.  The returned plan carries the report the verdict was read
    from.

    Raises :class:`NotImplementableError` (carrying the report) when the
    criterion fails at ``tol``.
    """
    op, _ = operator_to_mps(u, rank_tol)
    blocks, report = _criterion(op, tol)
    if not report.implementable:
        raise NotImplementableError(report)
    side = 2 * report.ancilla_dim_if_yes
    steps = []
    for k, q in enumerate(blocks):
        cols = np.zeros((side, q.shape[1]), dtype=np.complex128)
        cols[: q.shape[0]] = q
        completed = complete_to_unitary(cols)
        targets = np.arange(q.shape[1]) * (1 if k < op.m_in else 2)
        spare = np.setdiff1d(np.arange(side), targets)
        v = np.empty_like(completed)
        v[:, np.concatenate([targets, spare])] = completed
        steps.append(v)
    return SequentialPlan(report.ancilla_dim_if_yes, u.m_in, tuple(steps), op.bond_dims, report)


def _run_chain(plan: SequentialPlan, inputs: np.ndarray) -> np.ndarray:
    """Run the chain on a ``(2**m_in, batch)`` block of input amplitudes.

    Each column starts as (input) x |0...0> with the ancilla in basis state
    0; the result holds the final joint states as ``(ancilla, chain, batch)``.
    """
    d_anc, n, m = plan.ancilla_dim, plan.n_out, plan.m_in
    batch = inputs.shape[1]
    state = np.zeros((d_anc, 2**m, 2 ** (n - m), batch), dtype=np.complex128)
    state[0, :, 0, :] = inputs
    for k, step in enumerate(plan.steps):
        if k:
            # step k-1 left (ancilla, site k-1, sites < k-1, site k, rest);
            # one copy brings site k next to the ancilla and site k-1 home
            state = state.reshape(d_anc, 2, 2 ** (k - 1), 2, -1).transpose(0, 3, 2, 1, 4)
        state = step @ state.reshape(2 * d_anc, -1)
    state = state.reshape(d_anc, 2, 2 ** (n - 1), batch).transpose(0, 2, 1, 3)
    return state.reshape(d_anc, 2**n, batch)


def simulate(
    plan: SequentialPlan, input_state
) -> tuple[np.ndarray, float]:
    """Run the sequential factory on an input state of the first m_in qubits.

    The chain starts as (input) x |0...0>, the ancilla in basis state 0.
    Returns the normalized chain state conditioned on the ancilla having
    returned to 0, together with the norm of the ancilla components that
    failed to decouple (below 1e-10 for any plan built here).
    """
    amps = np.asarray(input_state, dtype=np.complex128).reshape(-1)
    if amps.size != 2**plan.m_in:
        raise ContractViolationError(
            f"input has {amps.size} amplitudes, expected {2**plan.m_in}"
        )
    if not np.isfinite(amps).all():
        raise ContractViolationError("input contains non-finite amplitudes")
    if abs(np.linalg.norm(amps) - 1.0) > STATE_NORM_TOL:
        raise ContractViolationError("input state is not normalized")
    final = _run_chain(plan, amps[:, None])[..., 0]
    residual = float(np.linalg.norm(final[1:, :]))
    block = final[0, :]
    block_norm = float(np.linalg.norm(block))
    if block_norm > 0.0:
        block = block / block_norm
    return block, residual


def verify_plan(plan: SequentialPlan, u: Isometry) -> PlanVerification:
    """Compare a plan against its target on every computational basis input.

    All basis inputs run through the chain as one batch.  Linearity makes
    basis coverage sufficient: the reported ``operator_norm_bound`` scales
    the worst basis error by ``sqrt(2**m_in)`` to bound the error over all
    inputs.
    """
    if plan.n_out != u.n_out or plan.m_in != u.m_in:
        raise ContractViolationError(
            f"plan is {plan.m_in}->{plan.n_out} but operator is "
            f"{u.m_in}->{u.n_out}"
        )
    final = _run_chain(plan, np.eye(2**u.m_in, dtype=np.complex128))
    max_error = 0.0
    max_decouple = 0.0
    for j in range(2**u.m_in):
        decouple = float(np.linalg.norm(final[1:, :, j]))
        state_err = float(np.linalg.norm(final[0, :, j] - u.matrix[:, j]))
        max_decouple = max(max_decouple, decouple)
        max_error = max(max_error, math.hypot(state_err, decouple))
    return PlanVerification(
        max_error=max_error,
        max_decoupling_residual=max_decouple,
        operator_norm_bound=max_error * math.sqrt(2.0**u.m_in),
    )


def direct_sum_operator_mps(u0_mps: Mps, u1_mps: Mps) -> Mps:
    """Stack matrix-product forms of the two basis images of a 1 -> N map.

    Given chains for the images of |0> and |1>, builds the block chain whose
    contraction is (image of |0>)<0| + (image of |1>)<1|: the fused first
    site routes each input value into its own branch, interior sites are
    block diagonal, and the last site concatenates the branches.  The bond
    dimension at every interior cut is the sum of the branch bond
    dimensions, which upper-bounds the canonical bond dimension of the
    operator (the bound need not be tight).
    """
    if u0_mps.n_sites != u1_mps.n_sites:
        raise ContractViolationError(
            f"site counts differ: {u0_mps.n_sites} vs {u1_mps.n_sites}"
        )
    if u0_mps.n_sites < 2:
        raise ContractViolationError("need at least two sites")
    dims = set(u0_mps.physical_dims) | set(u1_mps.physical_dims)
    if dims != {2}:
        raise ContractViolationError("both chains must carry qubit sites")
    n = u0_mps.n_sites
    tensors = []
    # fold each branch's overall scale into its first tensor
    a0 = [u0_mps.norm * u0_mps.tensors[0]] + list(u0_mps.tensors[1:])
    a1 = [u1_mps.norm * u1_mps.tensors[0]] + list(u1_mps.tensors[1:])
    d0, d1 = a0[0].shape[1], a1[0].shape[1]
    first = np.zeros((4, d0 + d1, 1), dtype=np.complex128)
    for i in range(2):
        first[2 * i + 0, :d0, 0] = a0[0][i, :, 0]
        first[2 * i + 1, d0:, 0] = a1[0][i, :, 0]
    tensors.append(first)
    for m in range(1, n - 1):
        r0, l0 = a0[m].shape[1], a0[m].shape[2]
        r1, l1 = a1[m].shape[1], a1[m].shape[2]
        t = np.zeros((2, r0 + r1, l0 + l1), dtype=np.complex128)
        t[:, :r0, :l0] = a0[m]
        t[:, r0:, l0:] = a1[m]
        tensors.append(t)
    l0, l1 = a0[-1].shape[2], a1[-1].shape[2]
    last = np.zeros((2, 1, l0 + l1), dtype=np.complex128)
    last[:, :, :l0] = a0[-1]
    last[:, :, l0:] = a1[-1]
    tensors.append(last)
    return Mps(tuple(tensors), m_in=1)


def operator_schmidt_ranks(
    u: Isometry, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[int, ...]:
    """Operator Schmidt ranks of a square unitary across contiguous cuts.

    For each cut c the operator is regrouped so that rows collect the output
    and input legs of sites <= c and columns collect the rest; the entry for
    cut c is the numerical rank of that matrix.  All ranks equal 1 exactly
    when the unitary is a tensor product of single-qubit unitaries, i.e.
    when it is non-entangling.
    """
    if not u.is_unitary:
        raise ContractViolationError(
            f"operator is {u.m_in}->{u.n_out}; Schmidt ranks need a square unitary"
        )
    n = u.n_out
    ranks = []
    for c in range(1, n):
        shuffled = regroup(
            u.matrix,
            [2**c, 2 ** (n - c), 2**c, 2 ** (n - c)],
            [4**c, 4 ** (n - c)],
            (0, 2, 1, 3),
        )
        ranks.append(svd(shuffled, rank_tol).numerical_rank)
    return tuple(ranks)
