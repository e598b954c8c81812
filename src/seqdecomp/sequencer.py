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
for input site ``k`` is ``||Q† Q - I||_2``, taken in one stacked call per
block shape for all the input blocks of that shape.  The criterion is
exact, so its tolerance is rounding slack only: it holds when every
residual is below :data:`~seqdecomp.linalg.ISOMETRY_TOL`, the tolerance of
every orthonormality check in the package, the check of each block of a
plan included.  When the criterion holds, a plan holds each step as its
defined columns, its block, the only columns the chain reaches; the
remaining columns, the orthogonal complement of ``Q`` from one complete QR
(:func:`~seqdecomp.linalg.complete_to_unitary`), are formed only when the
plan's ``steps`` are read.  The ancilla dimension equals the maximal
canonical bond dimension, the smallest for this visiting order, inputs
first; an order that interleaves inputs and outputs can need less.

:func:`sequentiality_test`, :func:`build_plan` and
:func:`operator_schmidt_ranks` each read the one canonical chain that
:func:`~seqdecomp.mps.operator_to_mps` makes of their operator.

For square (``M = N``) operators the criterion holds only for tensor
products of single-qubit unitaries, equivalently for operators whose
operator Schmidt rank is 1 across every contiguous cut; see
:func:`operator_schmidt_ranks`.

A plan is a matrix-product chain whose bond is the ancilla (Schön,
Solano, Verstraete, Cirac, Wolf, PRL 95, 110503 (2005)), run and verified
as that chain: :func:`_plan_chain` alone reads its blocks as site tensors
at the plan's own bonds, in the :mod:`~seqdecomp.mps` layout, from the
input qubits to the chain.  The last bond is 1, so the ancilla returns to
|0> by construction and no decoupling is left to measure.  One runner,
:func:`_rows`, contracts the chain on one input state for :func:`simulate`
and on all basis inputs against a dense target, no state of the chain
larger than the target.  :func:`verify_plan` compares a target held as a
chain, such as a ``product``, chain to chain: the difference is one chain,
the :func:`~seqdecomp.mps.direct_sum` of the target and the negated plan,
whose column norms, the errors of all basis inputs, one sweep of R
factors gives.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolationError, Frozen, NotImplementableError
from .linalg import ISOMETRY_TOL, _require_dense_fits, _require_fits, complete_to_unitary
from .linalg import isometry_defect, isometry_residual

# mps and oplib are imported inside the functions that use them, so that
# running a plan (simulate) loads neither
if TYPE_CHECKING:
    from .mps import Mps
    from .oplib import Isometry


class SequentialityReport(namedtuple(
    "SequentialityReport", "implementable per_site_residuals bond_dims ancilla_dim_if_yes"
)):
    """Outcome of the sequential-implementability test.

    ``per_site_residuals`` holds, for each input site, ``||Q† Q - I||_2`` of
    the defined columns ``Q`` of that site's step unitary (see the module
    docstring); the verdict is positive exactly when all of them stay below
    :data:`~seqdecomp.linalg.ISOMETRY_TOL`.
    ``ancilla_dim_if_yes`` is the ancilla dimension a synthesized plan would
    use, namely the maximal canonical bond dimension.
    """

    __slots__ = ()


class SequentialPlan(Frozen):
    """Synthesized sequential decomposition, held as its blocks.

    ``blocks[k]`` holds the columns of step ``k`` that the chain reaches,
    the only part of a plan that :func:`simulate` and :func:`verify_plan`
    read.  ``bond_dims`` lists the ``N + 1`` canonical bond dimensions:
    integers from 1 to ``ancilla_dim``, with both boundaries 1.  With
    ``b = bond_dims``, block ``k`` is ``(2 * b[k + 1]) x (2 * b[k])`` at an
    input site, column ``2 * r + j`` taking left bond ``r`` and input
    ``j``, and ``(2 * b[k + 1]) x b[k]`` after the inputs, column ``r``
    taking left bond ``r`` with the chain qubit in |0>; row ``2 * a + i``
    pairs right bond ``a`` with output ``i``.  The first ``m_in`` steps
    consume one input qubit each.  Each block must have orthonormal
    columns; the blocks are held, not copied, and made read-only.
    ``report`` is the criterion report a plan was built from; a plan read
    from a file has none.

    ``steps[k]``, formed from block ``k`` when first read, is the whole
    unitary on ancilla (x) site ``k + 1``; the composite index is
    ``ancilla_index * 2 + site_index``.  The ancilla starts and ends in
    basis state 0.  Instances compare and hash by identity.
    """

    ancilla_dim: int
    m_in: int
    blocks: tuple[np.ndarray, ...]
    bond_dims: tuple[int, ...]
    report: SequentialityReport | None

    def __init__(self, ancilla_dim: int, m_in: int, blocks, bond_dims,
                 report: SequentialityReport | None = None):
        shapes = _block_shapes(ancilla_dim, m_in, len(blocks), bond_dims)
        blocks = tuple(np.asarray(q, dtype=np.complex128) for q in blocks)
        for k, (q, shape) in enumerate(zip(blocks, shapes)):
            if q.shape != shape:
                raise ContractViolationError(f"blocks[{k}]: shape {q.shape}, expected {shape}")
            residual = isometry_residual(q)
            if not residual <= ISOMETRY_TOL:  # a non-finite block too
                raise ContractViolationError(
                    f"blocks[{k}]: columns are not orthonormal: residual {residual:.3e} "
                    f"in the {shape[0]}x{shape[1]} block"
                )
            q.setflags(write=False)
        self.__dict__.update(
            ancilla_dim=ancilla_dim, m_in=m_in, blocks=blocks, bond_dims=tuple(bond_dims),
            report=report,
        )

    @functools.cached_property
    def steps(self) -> tuple[np.ndarray, ...]:
        return _completed_steps(self.blocks, self.ancilla_dim, self.m_in)

    @property
    def n_out(self) -> int:
        return len(self.blocks)


def _block_shapes(ancilla_dim: int, m_in: int, n_steps: int, bonds) -> list[tuple[int, int]]:
    """The shape of each block of a plan of ``n_steps`` steps (see
    :class:`SequentialPlan`), once its ``m_in`` and ``bond_dims`` are
    checked: the bonds are validated before they are used as shapes."""
    if not 1 <= m_in <= n_steps:
        raise ContractViolationError(f"m_in: {m_in} out of range for {n_steps} steps")
    if len(bonds) != n_steps + 1 or bonds[0] != 1 or bonds[-1] != 1 or not all(
        isinstance(d, (int, np.integer)) and not isinstance(d, bool) and 1 <= d <= ancilla_dim
        for d in bonds
    ):
        raise ContractViolationError(
            f"bond_dims: must be {n_steps + 1} integers from 1 to the ancilla "
            f"dimension {ancilla_dim}, with both boundaries 1; got {list(bonds)}"
        )
    return [
        (2 * int(bonds[k + 1]), (2 if k < m_in else 1) * int(bonds[k])) for k in range(n_steps)
    ]


def _completed_steps(blocks, ancilla_dim: int, m_in: int) -> tuple[np.ndarray, ...]:
    """The step unitaries of a plan: each block, zero padded to the
    ancilla, is completed by one
    :func:`~seqdecomp.linalg.complete_to_unitary` call, its columns put
    where they act and the orthogonal complement in the rest."""
    side = 2 * ancilla_dim
    steps = []
    for k, q in enumerate(blocks):
        cols = np.zeros((side, q.shape[1]), dtype=np.complex128)
        cols[: q.shape[0]] = q
        completed = complete_to_unitary(cols)
        targets = np.arange(q.shape[1]) * (1 if k < m_in else 2)
        spare = np.ones(side, dtype=bool)
        spare[targets] = False
        v = np.empty_like(completed)
        v[:, np.concatenate([targets, np.flatnonzero(spare)])] = completed
        v.setflags(write=False)
        steps.append(v)
    return tuple(steps)


class PlanVerification(namedtuple("PlanVerification", "max_error operator_norm_bound")):
    """Check of a plan, contracted as its chain, against its target isometry.

    ``max_error`` is the worst 2-norm distance, over all computational basis
    inputs, between the plan's output state and the target output.  The
    plan's chain closes at bond 1, so its ancilla returns to |0> by
    construction and no decoupling residual is left to measure.  By
    linearity, ``operator_norm_bound = max_error * sqrt(2**m_in)`` bounds
    the error for every input state.
    """

    __slots__ = ()


def _defined_columns(t: np.ndarray, fused: bool) -> np.ndarray:
    """The columns of a step unitary fixed by one canonical site tensor.

    Row ``2 * a + i`` pairs right bond index ``a`` with output ``i``.  On an
    input site, column ``2 * r + j`` pairs left bond index ``r`` with input
    ``j`` and the tensor is rescaled by sqrt(2) to undo the unit-norm gauge
    (:func:`_input_blocks`); on the other sites, column ``r`` takes the
    chain qubit in state |0>.
    """
    if fused:
        return _input_blocks([t])[0]
    _, rgt, lft = t.shape
    return t.transpose(1, 0, 2).reshape(2 * rgt, lft)


def _input_blocks(tensors) -> np.ndarray:
    """The defined columns of input site tensors of one shape, as one stack:
    each block is formed once, the sqrt(2) applied on its way into its
    transposed place in the stack."""
    _, rgt, lft = tensors[0].shape
    stack = np.empty((len(tensors), rgt, 2, lft, 2), dtype=np.complex128)
    for t, q in zip(tensors, stack):
        np.multiply(t.reshape(2, 2, rgt, lft).transpose(2, 0, 3, 1), math.sqrt(2.0), out=q)
    return stack.reshape(len(tensors), 2 * rgt, 2 * lft)


def _criterion(op: Mps) -> SequentialityReport:
    """The verdict on a canonical chain, from one ``isometry_defect`` call
    per block shape on the stacked defined columns of the input sites of
    that shape; one shape's blocks are held at a time."""
    inputs = op.tensors[: op.m_in]
    residuals = [0.0] * op.m_in
    for shape in {t.shape for t in inputs}:
        sites = [k for k, t in enumerate(inputs) if t.shape == shape]
        defects = isometry_defect(_input_blocks([inputs[k] for k in sites]))
        for k, defect in zip(sites, defects.tolist()):
            residuals[k] = defect
    return SequentialityReport(
        implementable=max(residuals) < ISOMETRY_TOL,
        per_site_residuals=tuple(residuals),
        bond_dims=op.bond_dims,
        ancilla_dim_if_yes=op.max_bond_dim,
    )


def sequentiality_test(u: Isometry) -> SequentialityReport:
    """Test whether the isometry admits a single-pass sequential decomposition.

    The verdict does not depend on which canonical form is used, so a single
    canonicalization decides it.  For ``m_in == 1`` the criterion holds
    automatically and the verdict is always positive.
    """
    from . import mps

    return _criterion(mps.operator_to_mps(u)[0])


def build_plan(u: Isometry) -> SequentialPlan:
    """Synthesize the sequential decomposition with the smallest ancilla
    for this visiting order, inputs first.

    The ancilla dimension is the maximal canonical bond dimension.  Each
    step's defined columns come straight from the canonical site tensors
    (input sites are rescaled by sqrt(2) per site to undo the unit-norm
    gauge), and the plan is held as them, the only columns the chain ever
    reaches.  Its ``steps`` are formed only when read: bond spaces smaller
    than the ancilla are embedded by zero padding, and one
    :func:`~seqdecomp.linalg.complete_to_unitary` call per step fills the
    other columns with the orthogonal complement.  The blocks are formed
    only once the verdict holds, so a rejection copies no site of the
    chain.  The returned plan carries the report the verdict was read from.

    Raises :class:`NotImplementableError` (carrying the report) when the
    criterion fails.
    """
    from . import mps

    op, _ = mps.operator_to_mps(u)
    report = _criterion(op)
    if not report.implementable:
        raise NotImplementableError(report)
    blocks = [_defined_columns(t, k < op.m_in) for k, t in enumerate(op.tensors)]
    return SequentialPlan(report.ancilla_dim_if_yes, u.m_in, blocks, op.bond_dims, report)


#: States of the largest size that :func:`simulate`'s memory guard counts
#: beside a copy of the input and :func:`_chain_spare`: an input site holds
#: the state before and after and one partial product.
_SIMULATE_COPIES = 3


def simulate(plan: SequentialPlan, input_state) -> np.ndarray:
    """Run the sequential factory on an input state of the first m_in qubits.

    The plan's chain (:func:`_plan_chain`) is run on the state by
    :func:`_rows`.  Its last bond is 1, so the ancilla returns to |0> by
    construction; the normalized chain state is returned.  A state that
    would not fit in physical memory is refused.
    """
    amps = np.asarray(input_state, dtype=np.complex128).reshape(-1)
    if amps.size != 2**plan.m_in:
        raise ContractViolationError(
            f"input has {amps.size} amplitudes, expected 2**{plan.m_in}"
        )
    if not np.isfinite(amps).all():
        raise ContractViolationError("input contains non-finite amplitudes")
    if abs(np.linalg.norm(amps) - 1.0) > ISOMETRY_TOL:
        raise ContractViolationError("input state is not normalized")
    _require_simulate_fits(plan)
    state = _rows(_plan_chain(plan), state=amps).reshape(-1)
    return state / np.linalg.norm(state)


def _require_simulate_fits(plan: SequentialPlan) -> None:
    """:func:`simulate`'s memory guard: refuse a plan whose input state,
    states and chain would not fit in physical memory together."""
    # the state at bond k holds 2**max(k, m_in) amplitudes per bond state, a shift
    largest = max(int(b) << max(k, plan.m_in) for k, b in enumerate(plan.bond_dims))
    need = 16 * ((1 << plan.m_in) + _SIMULATE_COPIES * largest) + _chain_spare(plan)
    what = f"the state of {plan.n_out} sites at ancilla {plan.ancilla_dim}"
    _require_fits("simulate", what, need)


def _plan_chain(plan: SequentialPlan):
    """The plan's site tensors, one at a time, as an operator chain in the
    :mod:`~seqdecomp.mps` layout at the plan's own bonds: each block as
    (2 * output + input, right bond, left bond) at an input site and
    (output, right bond, left bond) after the inputs.  The first left bond
    and the last right bond are both 1."""
    b = plan.bond_dims
    for k, q in enumerate(plan.blocks):
        if k < plan.m_in:  # (output, input, right, left)
            yield q.reshape(b[k + 1], 2, b[k], 2).transpose(1, 3, 0, 2).reshape(4, b[k + 1], b[k])
        else:
            yield q.reshape(b[k + 1], 2, b[k]).transpose(1, 0, 2)


def _rows(tensors, norm: float = 1.0, state=None) -> np.ndarray:
    """Run a qubit chain, its last bond left open, on all basis inputs or on
    one input ``state``, the first input its most significant bit.

    ``tensors`` are in the :mod:`~seqdecomp.mps` layout, with a first left
    bond of 1 and an input leg (fused index 2 * output + input) at each
    site of physical dimension 4.  Each site is arranged once, as (input,
    left, output x right), for one product; its output becomes the least
    significant bit of each row.  From ``norm``, each input site opens a
    batch axis as the most significant: all rows, indexed (input, row,
    right bond), the last input site's input first.  From ``state``, each
    input site consumes its leading bit, and the rows are indexed (1, row,
    right bond).
    """
    if state is None:
        x = np.full((1, 1, 1), norm, dtype=np.complex128)  # (input, row prefix, bond)
    else:
        x = state.reshape(-1, 1, 1)  # (inputs not yet read, row prefix, bond)
    for t in tensors:
        d, rgt, lft = t.shape
        legs = t.reshape(2, d // 2, rgt, lft).transpose(1, 3, 0, 2)  # (input, left, output, right)
        legs = legs.reshape(d // 2, lft, 2 * rgt)
        prefix = x.shape[1]
        if state is None or d == 2:
            out = np.matmul(x.reshape(1, -1, lft), legs)
        else:  # consume the leading bit of the inputs not yet read
            x = x.reshape(2, -1, lft)
            out = x[0] @ legs[0]
            out += x[1] @ legs[1]
        x = out.reshape(-1, 2 * prefix, rgt)
    return x


def contract_operator(op: Mps) -> np.ndarray:
    """Dense ``(2**n_sites, 2**m_in)`` matrix represented by an operator
    chain: its rows (:func:`_rows`), with the inputs put in site order."""
    rows = _rows(op.tensors, op.norm)
    return rows.reshape([2] * op.m_in + [-1]).T.reshape(2**op.n_sites, -1)


def _chain_spare(plan: SequentialPlan) -> int:
    """Bytes that :func:`_rows` holds beside the states of a plan's chain:
    the largest block twice, as :func:`_plan_chain` copies it and as
    :func:`_rows` arranges it, and 4096 bytes of array headers and buffers,
    which ``tracemalloc`` measured at up to 2.5 kB."""
    return 2 * 16 * max(q.size for q in plan.blocks) + 2**12


def _difference_chain(plan: SequentialPlan, target: Mps) -> list[np.ndarray]:
    """The chain of ``U - P`` in the :mod:`~seqdecomp.mps` layout: the
    :func:`~seqdecomp.mps.direct_sum` of the target's chain U and the
    plan's chain P (:func:`_plan_chain`), with P negated at its first site.
    Each interior bond is U's plus P's; both boundary bonds are 1.

    U's ``norm`` is shared evenly by its sites.  That gives each factor of
    a ``product`` back its own scale, so the errors follow the rounding of
    the dense target more closely than with the norm on one site; the share
    is taken as ``2 ** (log2(norm) / N)``, which is exactly sqrt(2) for
    every product, where ``norm ** (1 / N)`` is not.
    """
    from . import mps

    share = 2 ** (math.log2(target.norm) / plan.n_out)
    p = list(_plan_chain(plan))
    p[0] = -p[0]
    return mps.direct_sum([share * a for a in target.tensors], p)


#: Arrays of one site's products that the memory guard of
#: :func:`_sweep_errors` counts: the products, their reordered copy and
#: LAPACK's copy of that (``tracemalloc`` measured 1.7 of them on a
#: 10-factor product, and 3.1 with the chain itself on ``cloner:8``).
_SWEEP_COPIES = 3


def _sweep_errors(plan: SequentialPlan, target: Mps) -> float:
    """Worst error over the basis inputs, the largest column norm of the
    difference chain, from one :func:`~seqdecomp.mps._column_norms` sweep."""
    from . import mps

    sites = _difference_chain(plan, target)
    bond = max(t.shape[1] for t in sites)
    # the chain, and for every input one site's products, at most
    # 2 * bond x bond entries each
    need = 16 * (sum(t.size for t in sites) + _SWEEP_COPIES * 2**plan.m_in * 2 * bond**2)
    _require_fits("plan verification", f"the sweep of {2**plan.m_in} inputs at bond {bond}", need)
    return float(mps._column_norms(sites).max())


#: Dense matrices that :func:`verify_plan` holds for a dense target: the
#: target and the two states of one site's product.  Orthonormal blocks have
#: ``b[k] <= b[k + 1]`` at an input site and ``b[k] <= 2 * b[k + 1]`` after,
#: so no state, ``2**min(k, m_in) * 2**k * b[k]`` entries, outgrows the target.
_VERIFY_COPIES = 3


def _dense_errors(plan: SequentialPlan, u: Isometry) -> float:
    """Worst error over the basis inputs, from all the plan's rows
    (:func:`_rows`) less the dense target's."""
    m, n = u.m_in, u.n_out
    _require_dense_fits("plan verification", m, n, _VERIFY_COPIES, _chain_spare(plan))
    inputs = [2] * m
    error = _rows(_plan_chain(plan)).reshape(*inputs, -1)
    error -= u.matrix.reshape(-1, *inputs).T  # (last input .. first input, row)
    error = error.reshape(2**m, -1)
    # per basis input, the squared error of the chain state
    error_sq = np.einsum("ir,ir->i", error.real, error.real)
    error_sq += np.einsum("ir,ir->i", error.imag, error.imag)
    return math.sqrt(float(error_sq.max()))


def verify_plan(plan: SequentialPlan, u: Isometry) -> PlanVerification:
    """Compare a plan against its target on every computational basis input.

    A target held as a chain (``u.chain``) is compared chain to chain: the
    difference chain (:func:`_difference_chain`) is reduced by one sweep
    that yields every input's error together, batched over the inputs
    (:func:`_sweep_errors`), so no row of either operator is formed.  A
    dense target is compared with all the plan's rows at once: the plan,
    read as a chain by :func:`_plan_chain`, is contracted by
    :func:`_rows` and ``u.matrix`` is subtracted from the
    rows (:func:`_dense_errors`).  Linearity makes basis coverage sufficient:
    the reported ``operator_norm_bound`` scales the worst basis error by
    ``sqrt(2**m_in)`` to bound the error over all inputs.  A verification
    that would not fit in physical memory is refused before it starts.
    """
    if plan.n_out != u.n_out or plan.m_in != u.m_in:
        raise ContractViolationError(
            f"plan is {plan.m_in}->{plan.n_out} but operator is "
            f"{u.m_in}->{u.n_out}"
        )
    max_error = _dense_errors(plan, u) if u.chain is None else _sweep_errors(plan, u.chain)
    return PlanVerification(
        max_error=max_error, operator_norm_bound=max_error * math.sqrt(2**u.m_in)
    )


def operator_schmidt_ranks(u: Isometry) -> tuple[int, ...]:
    """Operator Schmidt ranks of a square unitary across contiguous cuts.

    The entry for cut c is the rank of the operator with the output and
    input legs of sites <= c on one side and the rest on the other.  On a
    square operator these cuts are those of the fused chain, so the ranks
    are the interior bond dimensions of the operator's canonical chain
    (:func:`~seqdecomp.mps.operator_to_mps`), the numbers ``info`` prints:
    singular values at or below
    :data:`~seqdecomp.linalg.RANK_TOL` times the largest at a cut do not
    count.  All ranks equal 1 exactly when the unitary is a tensor product
    of single-qubit unitaries, i.e. when it is non-entangling.
    """
    if not u.is_unitary:
        raise ContractViolationError(
            f"operator is {u.m_in}->{u.n_out}; Schmidt ranks need a square unitary"
        )
    from . import mps

    return mps.operator_to_mps(u)[0].bond_dims[1:-1]
