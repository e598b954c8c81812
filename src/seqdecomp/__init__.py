"""Sequential qubit-ancilla decomposition of multiqubit isometries.

The package decides whether an M -> N qubit isometry can be realized as a
chain of unitaries, each acting once on (ancilla, site k) with no
measurements, synthesizes the step unitaries with the smallest ancilla
for this visiting order, inputs first, from the canonical matrix-product
form of the operator when possible, and runs and verifies a plan as the
chain it is: a matrix-product chain whose bond is the ancilla.

Each public name is loaded from its submodule the first time it is used,
so ``import seqdecomp`` itself imports neither numpy nor any submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_HOMES = {
    "ContractViolationError": "errors",
    "NotImplementableError": "errors",
    "NumericFailureError": "errors",
    "RANK_TOL": "linalg",
    "complete_to_unitary": "linalg",
    "dagger": "linalg",
    "reduced_density_matrix": "linalg",
    "svd": "linalg",
    "CanonicalReport": "mps",
    "CanonicalWeights": "mps",
    "Mps": "mps",
    "canonicalize": "mps",
    "check_canonical": "mps",
    "operator_to_mps": "mps",
    "state_to_mps": "mps",
    "Isometry": "oplib",
    "cnot": "oplib",
    "dicke_state": "oplib",
    "ghz_isometry": "oplib",
    "ghz_state": "oplib",
    "gisin_massar_cloner": "oplib",
    "haar_unitary": "oplib",
    "product_unitary": "oplib",
    "random_isometry": "oplib",
    "shor_encoder": "oplib",
    "PlanVerification": "sequencer",
    "SequentialPlan": "sequencer",
    "SequentialityReport": "sequencer",
    "build_plan": "sequencer",
    "contract_operator": "sequencer",
    "operator_schmidt_ranks": "sequencer",
    "sequentiality_test": "sequencer",
    "simulate": "sequencer",
    "verify_plan": "sequencer",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
