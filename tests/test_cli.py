"""Tests for the command-line interface and the file formats."""

import base64
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqdecomp import (
    ContractViolationError,
    Isometry,
    SequentialPlan,
    build_plan,
    ghz_isometry,
    ghz_state,
    haar_unitary,
    operator_schmidt_ranks,
    product_unitary,
    shor_encoder,
    verify_plan,
)
from seqdecomp import cli, formats, sequencer
from seqdecomp import mps as mps_module
from seqdecomp.cli import main
from seqdecomp.linalg import ISOMETRY_TOL, isometry_residual

from oracles import (
    complete_to_unitary_loops,
    corrupted,
    encode_block_entries,
    encode_matrix,
    operator_cut_ranks,
    simulate_full_state,
    verify_plan_loops,
)


def operator_doc(u):
    """The operator file document of an isometry, as ``formats.doc_to_isometry`` reads it."""
    return {"m_qubits": u.m_in, "n_qubits": u.n_out, "matrix": u.matrix}


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def factors_option(operator, path):
    """``--factors`` and ``path`` for the ``product`` builtin, the only
    operator that takes them, and nothing for any other."""
    return ["--factors", str(path)] if operator == "product" else []


def test_check_cnot_rejected(capsys):
    code, out, err = run_cli(["check", "cnot"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["implementable"] is False
    assert doc["per_site_residuals"][1] > 0.1


def test_check_shor_accepted(capsys):
    code, out, _ = run_cli(["check", "shor"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["implementable"] is True
    assert doc["ancilla_dim_if_yes"] == 4


def test_check_ghz3(capsys):
    code, out, _ = run_cli(["check", "ghz:3"], capsys)
    assert code == 0
    assert json.loads(out)["ancilla_dim_if_yes"] == 2


def test_decompose_shor_writes_plan(tmp_path, capsys):
    path = tmp_path / "plan.json"
    code, out, _ = run_cli(["decompose", "shor", "-o", str(path)], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["ancilla_dim"] == 4
    assert summary["verification_error"] < 1e-9
    doc = json.loads(path.read_text())
    # each step is its block, the columns the chain reaches, in the shape the
    # bonds fix: (2 * b[k + 1]) x (2 * b[k]) at the input site, then
    # (2 * b[k + 1]) x b[k]; each is base64 of 16 bytes an entry
    bonds = doc["bond_dims"]
    assert bonds == [1, 4, 4, 2, 4, 4, 2, 2, 2, 1]
    shapes = [(8, 2)] + [(2 * bonds[k + 1], bonds[k]) for k in range(1, 9)]
    assert [len(base64.b64decode(step, validate=True)) for step in doc["steps"]] == [
        16 * rows * cols for rows, cols in shapes
    ]
    assert [q.shape for q in formats.doc_to_plan(doc).blocks] == shapes
    assert doc["report"]["decoupling_residual"] == 0


def test_decompose_cloner_ancilla_bound(tmp_path, capsys):
    path = tmp_path / "plan.json"
    code, out, _ = run_cli(["decompose", "cloner:2", "-o", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["ancilla_dim"] <= 4


def test_decompose_cnot_fails_without_file(tmp_path, capsys):
    path = tmp_path / "plan.json"
    code, out, _ = run_cli(["decompose", "cnot", "-o", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["implementable"] is False
    assert not path.exists()


def test_decompose_to_an_unwritable_path_is_a_clear_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "plan.json"
    code, out, err = run_cli(["decompose", "shor", "-o", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write plan file '{path}': ")
    assert "FileNotFoundError" not in err


def test_decompose_into_a_missing_directory_exits_2_before_the_pipeline(
    tmp_path, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(cli, "build_plan", lambda *args, **kwargs: calls.append(args))
    path = tmp_path / "missing" / "plan.json"
    code, out, err = run_cli(["decompose", "cloner:8", "-o", str(path)], capsys)
    assert (code, out, calls) == (2, "", [])
    assert err.startswith(f"error: cannot write plan file '{path}': ")
    assert not path.parent.exists()


@pytest.mark.parametrize("where, fault", [("", "empty path"), (".", "is a directory")])
def test_decompose_into_an_unwritable_path_exits_2_before_the_pipeline(
    where, fault, tmp_path, capsys, monkeypatch
):
    # an empty path once exited 0 and wrote nothing; a directory failed only
    # after the whole decomposition
    calls = []
    monkeypatch.setattr(cli, "build_plan", lambda *args, **kwargs: calls.append(args))
    path = str(tmp_path) if where else ""
    code, out, err = run_cli(["decompose", "shor", "-o", path], capsys)
    assert (code, out, calls) == (2, "", [])
    assert err == f"error: cannot write plan file '{path}': {fault}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_plan_file_that_fails_while_written_exits_2(capsys):
    code, out, err = run_cli(["decompose", "random:1,8,0", "-o", "/dev/full"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write plan file '/dev/full': [Errno 28]")


def test_the_plan_file_is_the_document_and_a_newline(tmp_path, capsys):
    # byte for byte what dumps makes of the document, and a newline
    path = tmp_path / "plan.json"
    assert run_cli(["decompose", "random:1,6,4", "-o", str(path)], capsys)[0] == 0
    u = cli.load_operator("random:1,6,4")
    plan = build_plan(u)
    text = formats.dumps(formats.plan_to_doc(plan, sequencer.verify_plan(plan, u))) + "\n"
    assert path.read_bytes() == text.encode("utf-8")


def test_decompose_writes_its_plan_through_the_public_dumps(tmp_path, capsys, monkeypatch):
    # a tracer that wraps formats.dumps by name sees the plan file and the
    # summary, each one call
    calls = []
    public = formats.dumps
    monkeypatch.setattr(formats, "dumps", lambda obj: calls.append(obj) or public(obj))
    path = tmp_path / "plan.json"
    code, out, _ = run_cli(["decompose", "ghz:3", "-o", str(path)], capsys)
    assert code == 0
    assert [sorted(doc) for doc in calls] == [sorted(json.loads(path.read_text())), sorted(json.loads(out))]


def test_decompose_product_refuses_factors_whose_slack_compounds(tmp_path, capsys):
    # each factor's Gram is (1 + 2e-11)^2 I, inside its own 1e-10 check; the
    # product's is (1 + 2e-11)^20 I, a residual of 4e-10
    rng = np.random.default_rng(12)
    factors = tmp_path / "factors.json"
    factors.write_text(formats.dumps([(1.0 + 2e-11) * haar_unitary(2, rng) for _ in range(10)]))
    code, out, err = run_cli(["decompose", "product", "--factors", str(factors)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: matrix is not an isometry: residual 4.000e-10\n"


def test_decompose_refuses_a_verification_larger_than_memory(tmp_path, capsys, monkeypatch):
    # cloner:3 is 1024 bytes; verifying holds the target and the two states
    # of one product (3 matrices), its largest block, 12 x 4 entries, twice,
    # and 4096 bytes more: 8704 bytes.  That is below canonicalization's 7
    # matrices, whose count is cut to the operator alone so that the request
    # reaches verification
    monkeypatch.setattr(mps_module, "_PEEL_COPIES", 1)
    memory = {"SC_PHYS_PAGES": 8703, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    path = tmp_path / "plan.json"
    code, out, err = run_cli(["decompose", "cloner:3", "-o", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "error: plan verification: the dense 1 -> 5 matrix x 3 and 5632 bytes needs 8704 bytes, "
        "more than the 8703 bytes of physical memory\n"
    )
    assert not path.exists()


def test_decompose_verifies_a_large_plan_within_the_peel_memory(tmp_path, capsys, monkeypatch):
    # cloner:8 is 2**20 bytes with ancilla 16: the peel counts 7 matrices and
    # verification 3 and its largest block, where the whole padded operator
    # made 25
    memory = {"SC_PHYS_PAGES": 7 * 2**20, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    code, out, err = run_cli(["decompose", "cloner:8"], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["ancilla_dim"] == 16
    assert doc["verification_error"] < 1e-12


@pytest.mark.parametrize("command", ["check", "decompose", "info"])
@pytest.mark.parametrize("operator", ["ghz:4", "file", "product"])
def test_canonicalization_larger_than_memory_exits_2_before_the_peel(
    command, operator, tmp_path, capsys, monkeypatch
):
    # each operator is 1 -> 4 (512 bytes) or 4 -> 4 (4096 bytes) and fits in
    # memory itself; its peel, 7 matrices, does not.  A product is
    # canonicalized as its bond-1 chain, so it needs no peel and is decided.
    rng = np.random.default_rng(17)
    factors = tmp_path / "factors.json"
    factors.write_text(formats.dumps([haar_unitary(2, rng) for _ in range(4)]))
    if operator == "file":
        operator = str(tmp_path / "ghz.json")
        (tmp_path / "ghz.json").write_text(
            formats.dumps(operator_doc(ghz_isometry(4)))
        )
    (m, n) = (4, 4) if operator == "product" else (1, 4)
    need = 7 * 16 * 2 ** (m + n)
    peels = []
    monkeypatch.setattr(mps_module, "_dense_sweep", lambda *args: peels.append(args))
    memory = {"SC_PHYS_PAGES": need - 1, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    code, out, err = run_cli([command, operator, *factors_option(operator, factors)], capsys)
    if operator == "product":
        assert (code, err, peels) == (0, "", [])
        return
    assert (code, out, peels) == (2, "", [])
    assert err == (
        f"error: canonicalization: the dense {m} -> {n} matrix x 7 needs {need} bytes, "
        f"more than the {need - 1} bytes of physical memory\n"
    )


def test_simulate_refuses_a_state_larger_than_memory(tmp_path, capsys, monkeypatch):
    # a 2 x 2 step and fifteen 2 x 1 blocks, a plan of a few kB, run a 1 MiB
    # state at ancilla 1; the guard counts the input, three states of 2**16
    # amplitudes, the 2 x 2 block twice and 4096 bytes of array headers
    identity = encode_block_entries([[1, 0], [0, 1]])
    keep = encode_block_entries([[1], [0]])
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(
        {"ancilla_dim": 1, "m_in": 1, "steps": [identity] + [keep] * 15, "bond_dims": [1] * 17}
    ))
    need = 16 * (2 + 3 * 2**16) + 2 * 16 * 4 + 4096
    runs = []
    chain = sequencer._plan_chain
    monkeypatch.setattr(sequencer, "_plan_chain", lambda plan: runs.append(plan) or chain(plan))
    memory = {"SC_PHYS_PAGES": need - 1, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    argv = ["simulate", str(path), "--input-state", "1", "--reduce", "1"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, runs) == (2, "", [])
    assert err == (
        f"error: simulate: the state of 16 sites at ancilla 1 needs {need} bytes, "
        f"more than the {need - 1} bytes of physical memory\n"
    )
    memory["SC_PHYS_PAGES"] = need
    code, out, err = run_cli(argv, capsys)
    assert (code, err, len(runs)) == (0, "", 1)
    assert np.array(json.loads(out)["reduced_density_matrix"]).tolist() == [
        [[0, 0], [0, 0]], [[0, 0], [1, 0]]
    ]


def test_simulate_shor_plus(tmp_path, capsys):
    path = tmp_path / "plan.json"
    run_cli(["decompose", "shor", "-o", str(path)], capsys)
    code, out, _ = run_cli(["simulate", str(path), "--input-state", "+"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["decoupling_residual"] == 0
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    gp, gm = ghz_state(3, +1), ghz_state(3, -1)
    target = (
        np.kron(np.kron(gp, gp), gp) + np.kron(np.kron(gm, gm), gm)
    ) / math.sqrt(2.0)
    assert np.linalg.norm(amps - target) < 1e-10


def test_simulate_label_starting_with_minus(tmp_path, capsys):
    # argparse reads a bare "-" value as an option, so it is attached with "="
    path = tmp_path / "plan.json"
    run_cli(["decompose", "shor", "-o", str(path)], capsys)
    code, out, _ = run_cli(["simulate", str(path), "--input-state=-"], capsys)
    assert code == 0
    amps = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
    gp, gm = ghz_state(3, +1), ghz_state(3, -1)
    target = (
        np.kron(np.kron(gp, gp), gp) - np.kron(np.kron(gm, gm), gm)
    ) / math.sqrt(2.0)
    assert np.linalg.norm(amps - target) < 1e-10


def test_simulate_all_minus_label_of_two_qubits(tmp_path, capsys):
    # argparse (3.11 among others) drops the value of --input-state=--
    factors = tmp_path / "factors.json"
    rng = np.random.default_rng(8)
    factors.write_text(formats.dumps([haar_unitary(2, rng) for _ in range(2)]))
    path = tmp_path / "plan.json"
    code, _, _ = run_cli(["decompose", "product", "--factors", str(factors), "-o", str(path)], capsys)
    assert code == 0
    code, out, err = run_cli(["simulate", str(path), "--input-state=--"], capsys)
    assert code == 0, err
    amps = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    u = cli.load_operator("product", str(factors))
    assert np.linalg.norm(amps - u.matrix @ np.kron(minus, minus)) < 1e-10


def test_simulate_identity_plan(tmp_path, capsys):
    # 1 -> 1 identity loaded from an operator file
    op_path = tmp_path / "identity.json"
    op_path.write_text(
        formats.dumps(
            {
                "m_qubits": 1,
                "n_qubits": 1,
                "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            }
        )
    )
    plan_path = tmp_path / "plan.json"
    code, _, _ = run_cli(["decompose", str(op_path), "-o", str(plan_path)], capsys)
    assert code == 0
    code, out, _ = run_cli(["simulate", str(plan_path), "--input-state", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["amplitudes"][0] == [1.0, 0.0]


def test_simulate_cloner_reduced(tmp_path, capsys):
    path = tmp_path / "plan.json"
    run_cli(["decompose", "cloner:2", "-o", str(path)], capsys)
    code, out, _ = run_cli(
        ["simulate", str(path), "--input-state", "0", "--reduce", "1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    rho = np.array(
        [[complex(re, im) for re, im in row] for row in doc["reduced_density_matrix"]]
    )
    assert np.allclose(rho, np.diag([5.0 / 6.0, 1.0 / 6.0]), atol=1e-10)


@pytest.mark.parametrize("site", [0, 4])
def test_simulate_refuses_a_reduced_site_before_running_the_chain(site, tmp_path, capsys,
                                                                  monkeypatch):
    path = tmp_path / "plan.json"
    run_cli(["decompose", "cloner:2", "-o", str(path)], capsys)
    calls = []
    monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args))
    code, out, err = run_cli(
        ["simulate", str(path), "--input-state", "0", "--reduce", str(site)], capsys
    )
    assert (code, out, calls) == (2, "", [])
    assert err == f"error: --reduce: site {site} out of range 1..3\n"


def test_simulate_amplitude_list_input(tmp_path, capsys):
    path = tmp_path / "plan.json"
    run_cli(["decompose", "ghz:2", "-o", str(path)], capsys)
    code, out, _ = run_cli(
        ["simulate", str(path), "--input-state", "[[1,0],[0,0]]"], capsys
    )
    assert code == 0
    amps = json.loads(out)["amplitudes"]
    assert np.isclose(amps[0][0], 1 / math.sqrt(2))


@pytest.mark.parametrize(
    "state", ["[[1e200,0],[1e200,0]]", "[[5e-324,0],[5e-324,0]]", "[1e-170,1e-170]"],
    ids=["huge", "subnormal", "tiny"],
)
def test_simulate_normalizes_any_nonzero_finite_list(state, tmp_path, capsys):
    # the norm is taken after an exact scaling by a power of two, so it
    # neither overflows nor underflows; a warning would fail the request
    path = tmp_path / "plan.json"
    assert run_cli(["decompose", "shor", "-o", str(path)], capsys)[0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = run_cli(["simulate", str(path), "--input-state", "[[1,0],[1,0]]"], capsys)
        assert run_cli(["simulate", str(path), f"--input-state={state}"], capsys) == expected
    assert expected[0] == 0 and expected[2] == ""


def test_simulate_refuses_a_state_too_large_to_print_its_size(tmp_path, capsys):
    # 20000 sites at bond 1 run a state of 2**20000 amplitudes, whose size
    # has more digits than Python prints of an integer
    identity = encode_block_entries([[1, 0], [0, 1]])
    keep = encode_block_entries([[1], [0]])
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(
        {"ancilla_dim": 1, "m_in": 1, "steps": [identity] + [keep] * 19999, "bond_dims": [1] * 20001}
    ))
    code, out, err = run_cli(["simulate", str(path), "--input-state", "0"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(
        "error: simulate: the state of 20000 sites at ancilla 1 needs at least 2**20005 bytes, "
    )


def test_info_cnot(capsys):
    code, out, _ = run_cli(["info", "cnot"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schmidt_ranks"] == [2]
    assert doc["bond_dims"] == [1, 2, 1]


def test_info_shor(capsys):
    code, out, _ = run_cli(["info", "shor"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["max_bond_dim"] == 4
    assert doc["schmidt_ranks"] is None
    assert doc["canonical_residuals"]["left_normalization"] < 1e-10


def test_info_product_defaults_to_identity_factors(capsys):
    code, out, _ = run_cli(["info", "product"], capsys)
    assert code == 0
    assert json.loads(out)["schmidt_ranks"] == [1]


def test_info_product_with_factor_file(tmp_path, capsys):
    x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    h = [
        [[1 / math.sqrt(2), 0.0], [1 / math.sqrt(2), 0.0]],
        [[1 / math.sqrt(2), 0.0], [-1 / math.sqrt(2), 0.0]],
    ]
    path = tmp_path / "factors.json"
    path.write_text(json.dumps([x, h, x]))
    code, out, _ = run_cli(["info", "product", "--factors", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["schmidt_ranks"] == [1, 1]


@pytest.mark.parametrize("command", ["check", "decompose", "info"])
@pytest.mark.parametrize("operator", ["cnot", "shor", "file"])
def test_factors_with_any_operator_but_product_exits_2(command, operator, tmp_path, capsys):
    # only the bare product builtin reads --factors: any other operator
    # refuses the option before the factor file is opened or a plan written
    if operator == "file":
        operator = str(tmp_path / "shor.json")
        (tmp_path / "shor.json").write_text(formats.dumps(operator_doc(shor_encoder())))
    argv = [command, operator, "--factors", str(tmp_path / "missing.json")]
    plan = tmp_path / "plan.json"
    code, out, err = run_cli(argv + (["-o", str(plan)] if command == "decompose" else []), capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --factors: only the 'product' builtin takes factors, not '{operator}'\n"
    assert not plan.exists()


@pytest.mark.parametrize("operator", ["cnot", "product", "random:3,3,7"])
def test_info_schmidt_ranks_match_the_operator_witness(operator, tmp_path, capsys):
    # info reads the ranks off the canonical bonds; the witness cuts the
    # dense operator directly
    rng = np.random.default_rng(4)
    path = tmp_path / "factors.json"
    path.write_text(formats.dumps([haar_unitary(2, rng) for _ in range(4)]))
    code, out, _ = run_cli(["info", operator, *factors_option(operator, path)], capsys)
    assert code == 0
    u = cli.load_operator(operator, str(path) if operator == "product" else None)
    assert json.loads(out)["schmidt_ranks"] == list(operator_cut_ranks(u))
    assert json.loads(out)["schmidt_ranks"] == list(operator_schmidt_ranks(u))


def test_decompose_canonicalizes_once(monkeypatch, capsys, tmp_path):
    # a dense operator is peeled once; a product's chain is canonicalized
    # once, by operator_to_mps handing it to canonicalize
    calls = []

    def counted(name):
        original = getattr(mps_module, name)
        return lambda *args: calls.append(name) or original(*args)

    for name in ("operator_to_mps", "canonicalize"):
        monkeypatch.setattr(mps_module, name, counted(name))
    rng = np.random.default_rng(23)
    factors = tmp_path / "factors.json"
    factors.write_text(formats.dumps([haar_unitary(2, rng) for _ in range(10)]))
    for argv, calls_made in [
        (["decompose", "shor"], ["operator_to_mps"]),
        (["decompose", "product", "--factors", str(factors)], ["operator_to_mps", "canonicalize"]),
    ]:
        calls.clear()
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert calls == calls_made


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"m_qubits": 1,')
    code, out, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "line" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"m_qubits":1,"n_qubits":1000000000,"matrix":[]}', "n_qubits"),
        ('{"m_qubits":1,"n_qubits":1' + "0" * 5000 + ',"matrix":[]}', "invalid JSON"),
    ],
    ids=["qubit count", "integer digits"],
)
def test_oversized_operator_counts_exit_2_at_once(text, message, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli(["check", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}") and message in err


@pytest.mark.parametrize(
    "token, n_out", [("ghz:45", 45), ("cloner:40", 79)], ids=["ghz", "cloner"]
)
def test_oversized_builtin_exits_2_before_allocating(token, n_out, capsys):
    # only sizes the guard refuses: one that passed it would be allocated
    start = time.perf_counter()
    code, out, err = run_cli(["check", token], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {token}: ")
    assert f"needs {16 * 2 ** (n_out + 1)} bytes" in err
    assert "MemoryError" not in err


#: The address-space limit of the child below: ``check shor`` runs within half of it.
_CHILD_MEMORY = 2**30


@pytest.mark.parametrize(
    "token", ["ghz:100000", "ghz:1000000000", "cloner:99999999999999999999"]
)
def test_huge_builtin_exits_2_without_forming_its_size(token):
    # in a child under a 1 GiB address-space limit: a size of 2**(n + 5)
    # bytes takes n / 8 bytes to form, and more than 4300 digits to print
    code = (
        "import resource, sys, time\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({_CHILD_MEMORY}, {_CHILD_MEMORY}))\n"
        "from seqdecomp.cli import main\n"
        "start = time.perf_counter()\n"
        f"code = main(['check', {token!r}])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=child_env()
    )
    assert proc.returncode == 2, proc.stderr
    assert float(proc.stdout) < 1.0
    assert proc.stderr.startswith(f"error: {token}: the dense 1 -> ")
    assert " bytes, more than the " in proc.stderr and proc.stderr.count("\n") == 1
    assert "MemoryError" not in proc.stderr and "ValueError" not in proc.stderr


#: Malformed entries of a ``--factors`` list, each where a 2x2 matrix belongs.
_BAD_FACTORS = {
    "three rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]],
    "ragged": [[[1, 0], [0, 0]], [[0, 0]]],
    "string": "eye",
    "non-finite": [[[1, 0], [0, 0]], [[0, 0], [float("inf"), 0]]],
}


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("kind", list(_BAD_FACTORS))
def test_a_malformed_factor_entry_is_named_by_its_index(kind, position, tmp_path, capsys):
    # each entry is decoded on its own, so the first bad one names the error
    entries = [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]] * 5
    entries[position] = _BAD_FACTORS[kind]
    path = tmp_path / "factors.json"
    path.write_text(json.dumps(entries))
    code, out, err = run_cli(["check", "product", "--factors", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}[{position}]: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [[0], [3], [1, 4]])
def test_a_non_unitary_factor_is_named_by_its_index(bad, tmp_path, capsys):
    rng = np.random.default_rng(13)
    factors = [(1.0 + 1e-6 * (k in bad)) * haar_unitary(2, rng) for k in range(5)]
    path = tmp_path / "factors.json"
    path.write_text(formats.dumps(factors))
    code, out, err = run_cli(["check", "product", "--factors", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: factor {bad[0]} is not unitary\n"


def test_an_svd_that_does_not_converge_exits_2_with_one_error_line(capsys, monkeypatch):
    def diverge(*_, **__):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", diverge)
    code, out, err = run_cli(["check", "shor"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: SVD failed to converge for shape ") and err.count("\n") == 1


#: Input sites of the plan below: 2**20000 has more than 4300 digits.
_WIDE_INPUTS = 20000


@pytest.fixture(scope="module")
def wide_plan(tmp_path_factory):
    """A plan file of 20000 input sites, each a 2x2 identity block at bonds 1."""
    eye = formats.encode_block(np.eye(2))
    doc = {
        "ancilla_dim": 1,
        "m_in": _WIDE_INPUTS,
        "steps": [eye] * _WIDE_INPUTS,
        "bond_dims": [1] * (_WIDE_INPUTS + 1),
    }
    path = tmp_path_factory.mktemp("wide") / "plan.json"
    path.write_text(json.dumps(doc))
    return path


def test_an_amplitude_list_of_the_wrong_length_forms_no_power_of_its_inputs(wide_plan, capsys):
    code, out, err = run_cli(["simulate", str(wide_plan), "--input-state", "[1]"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: --input-state: 1 amplitudes, not 2**{_WIDE_INPUTS}\n"
    # the library's own check words the size as a power too
    plan = formats.doc_to_plan(json.loads(wide_plan.read_text()))
    message = rf"^input has 1 amplitudes, expected 2\*\*{_WIDE_INPUTS}$"
    with pytest.raises(ContractViolationError, match=message):
        sequencer.simulate(plan, np.ones(1))


@pytest.mark.parametrize("state", ["[1, 0, 0]", "[1, 0, 0, 0]", "[]"])
def test_an_amplitude_list_of_the_wrong_length_is_refused(state, tmp_path, capsys):
    path = tmp_path / "plan.json"
    assert run_cli(["decompose", "shor", "-o", str(path)], capsys)[0] == 0
    code, out, err = run_cli(["simulate", str(path), "--input-state", state], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --input-state: ") and err.count("\n") == 1


def test_a_long_label_meets_the_memory_guard_before_its_state_is_built(wide_plan):
    # in a child under a 1 GiB address-space limit: the label's state alone
    # would take 2**20004 bytes, so it must not be built before the guard
    code = (
        "import resource, sys, time\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({_CHILD_MEMORY}, {_CHILD_MEMORY}))\n"
        "from seqdecomp.cli import main\n"
        "start = time.perf_counter()\n"
        f"code = main(['simulate', {str(wide_plan)!r}, '--input-state=' + '0' * {_WIDE_INPUTS}])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=child_env()
    )
    assert proc.returncode == 2, proc.stderr
    assert float(proc.stdout) < 1.0
    guard = f"error: simulate: the state of {_WIDE_INPUTS} sites at ancilla 1 needs at least 2**"
    assert proc.stderr.startswith(guard) and proc.stderr.count("\n") == 1
    assert "MemoryError" not in proc.stderr


@settings(max_examples=40, deadline=None)
@given(label=st.text(alphabet="01+-", min_size=1, max_size=8))
def test_a_label_state_has_the_bytes_of_the_kron_chain(label):
    plan = SequentialPlan(1, len(label), [np.eye(2)] * len(label), [1] * (len(label) + 1))
    want = np.ones(1, dtype=np.complex128)
    for c in label:
        want = np.kron(want, np.array(cli._SINGLE_QUBIT_LABELS[c], dtype=np.complex128))
    got = cli._parse_input_state(label, plan)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_wrong_field_exits_2_with_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m_qubits": 1, "n_qubits": 1, "matrix": [[1, 2]]}))
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert "matrix" in err


def test_non_isometry_exits_2(tmp_path, capsys):
    path = tmp_path / "notiso.json"
    path.write_text(
        formats.dumps(
            {
                "m_qubits": 1,
                "n_qubits": 1,
                "matrix": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            }
        )
    )
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert "isometry" in err


def test_unknown_builtin_exits_2(capsys):
    code, _, err = run_cli(["check", "cloner:x"], capsys)
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize(
    "token, message",
    [
        ("cloner:0", "need at least one clone"),
        ("ghz:0", "need at least one output qubit"),
        ("random:2,3,-1", "seed must be non-negative, got seed=-1"),
    ],
)
def test_builtin_contract_violation_keeps_its_message(token, message, capsys):
    code, out, err = run_cli(["check", token], capsys)
    assert code == 2
    assert out == ""
    assert message in err
    assert "malformed" not in err


@pytest.mark.parametrize("token", ["random:1,2", "random:1,2,3,4", "ghz:2,3", "ghz:"])
def test_builtin_with_wrong_argument_count_exits_2(token, capsys):
    code, out, err = run_cli(["check", token], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("token", ["ghz:1_0", "ghz: 3", "ghz:+3", "ghz:\u0663", "random:1, 2,0"])
def test_builtin_arguments_are_ascii_decimal_integers(token, capsys):
    # int() reads each of these, the first as ghz:10
    code, out, err = run_cli(["check", token], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: malformed builtin arguments in '{token}'\n"


def _ghz2_plan():
    """A plan file's document for ghz:2, which reads one input."""
    u = ghz_isometry(2)
    plan = build_plan(u)
    return formats.plan_to_doc(plan, verify_plan(plan, u))


_IDENTITY = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]

#: Requests refused for their one input file or their label: (argv, the
#: document of the file that "{}" names, or a function that makes it, and
#: the message of the one error line, "{}" again naming the file).
_CLI_REFUSALS = {
    "operator without n_qubits": (
        ["check", "{}"], {"m_qubits": 1}, "{}: missing field 'n_qubits'"
    ),
    "fractional m_qubits": (
        ["check", "{}"],
        {"m_qubits": 1.5, "n_qubits": 1, "matrix": []},
        "{}.m_qubits: expected an integer",
    ),
    "matrix of another type": (
        ["check", "{}"],
        {"m_qubits": 1, "n_qubits": 1, "matrix": {}},
        "{}.matrix: expected list",
    ),
    "operator list": (["check", "{}"], [], "{}: expected a JSON object"),
    "more inputs than outputs": (
        ["info", "{}"],
        {"m_qubits": 2, "n_qubits": 1, "matrix": []},
        "{}: need 1 <= m_qubits <= n_qubits",
    ),
    "plan list": (
        ["simulate", "{}", "--input-state", "0"], [], "{}: expected a JSON object"
    ),
    "plan of ancilla 0": (
        ["simulate", "{}", "--input-state", "0"],
        {"ancilla_dim": 0, "m_in": 1, "steps": [], "bond_dims": []},
        "{}.ancilla_dim: must be positive",
    ),
    "factor object": (
        ["check", "product", "--factors", "{}"],
        {},
        "{}: expected a nonempty JSON list of 2x2 matrices",
    ),
    "no factor": (
        ["decompose", "product", "--factors", "{}"],
        [],
        "{}: expected a nonempty JSON list of 2x2 matrices",
    ),
    "11 factors": (
        ["check", "product", "--factors", "{}"], [_IDENTITY] * 11, "at most 10 factors supported"
    ),
    "label of two qubits": (
        ["simulate", "{}", "--input-state", "01"],
        _ghz2_plan,
        "--input-state: expected 1 characters from 01+- or an amplitude list",
    ),
    "label outside 01+-": (
        ["simulate", "{}", "--input-state", "x"],
        _ghz2_plan,
        "--input-state: expected 1 characters from 01+- or an amplitude list",
    ),
    # an empty path names no file, though Path("") is the working directory
    "empty operator path": (["check", ""], {}, "cannot read operator file '': empty path"),
    "empty factor path": (
        ["check", "product", "--factors", ""], {}, "cannot read factor file '': empty path"
    ),
    "empty plan path": (
        ["simulate", "", "--input-state", "0"], {}, "cannot read plan file '': empty path"
    ),
}


@pytest.mark.parametrize("case", list(_CLI_REFUSALS))
def test_malformed_files_and_labels_exit_2_with_one_error_line(case, tmp_path, capsys):
    argv, doc, message = _CLI_REFUSALS[case]
    path = tmp_path / "input.json"
    path.write_text(formats.dumps(doc() if callable(doc) else doc))
    code, out, err = run_cli([a.format(path) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message.format(path)}\n"


@pytest.mark.parametrize("count, first", [(100000, _IDENTITY), (12, "eye")],
                         ids=["100000 identities", "12 with a malformed first"])
def test_a_factor_list_over_ten_is_refused_before_any_entry_is_decoded(
    count, first, tmp_path, capsys, monkeypatch
):
    # the count alone decides, so an over-long file with a malformed entry
    # reports the count too
    def decode(*_):
        raise AssertionError("no entry may be decoded")

    monkeypatch.setattr(formats, "decode_matrix", decode)
    path = tmp_path / "factors.json"
    path.write_text(json.dumps([first] + [_IDENTITY] * (count - 1)))
    code, out, err = run_cli(["check", "product", "--factors", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: at most 10 factors supported\n")


# neither tolerance is an option: any value of either is refused
@pytest.mark.parametrize("flag", ["--rank-tol", "--crit-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-12", "x"])
def test_bad_tolerance_is_a_usage_error(flag, value, capsys, monkeypatch):
    def fail(*_):
        raise AssertionError("the operator must not be loaded")

    monkeypatch.setattr(cli, "load_operator", fail)
    with pytest.raises(SystemExit) as exc:
        main(["check", "shor", f"{flag}={value}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert flag in err


SUBCOMMANDS = {
    "check": ["check", "shor"],
    "decompose": ["decompose", "shor"],
    "info": ["info", "shor"],
    "simulate": ["simulate", "plan.json", "--input-state", "0"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_no_subcommand_takes_a_criterion_tolerance(command, capsys):
    # nor a rank cutoff: both tolerances are constants
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert "crit" not in out and "rank" not in out
    for flag in ("--crit-tol", "--rank-tol"):
        with pytest.raises(SystemExit) as exc:
            main(SUBCOMMANDS[command] + [f"{flag}=1e-8"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert flag in err


def test_check_and_decompose_reject_alike(capsys):
    # the criterion and the completion of each step decide at one tolerance
    check = run_cli(["check", "random:2,3,0"], capsys)
    decompose = run_cli(["decompose", "random:2,3,0"], capsys)
    assert check[0] == decompose[0] == 1
    assert check[1] == decompose[1]
    assert check[2] == decompose[2] == ""
    doc = json.loads(check[1])
    assert doc["criterion_tol"] == ISOMETRY_TOL
    assert max(doc["per_site_residuals"]) > 1.0


def _perturbed_product(n, p, log_eps, seed, path):
    """An operator file of exp(-i eps Z x Z) on qubits (p, p + 1) after
    Haar single-qubit unitaries on each of n qubits."""
    rng = np.random.default_rng(seed)
    layer = product_unitary([haar_unitary(2, rng) for _ in range(n)]).matrix
    zz = np.diag(np.exp(-1j * 10.0**log_eps * np.array([1, -1, -1, 1])))
    gate = np.kron(np.kron(np.eye(2 ** (p - 1)), zz), np.eye(2 ** (n - p - 1)))
    path.write_text(formats.dumps(operator_doc(Isometry(n, n, gate @ layer))))
    return str(path)


def test_a_slightly_entangling_gate_is_rejected_and_an_encoder_accepted(tmp_path, capsys):
    # no rank cutoff can be raised until exp(-i 1e-3 Z x Z) looks like a
    # product, nor until a 1 -> N isometry loses its canonical gauge
    operator = _perturbed_product(2, 1, -3, 0, tmp_path / "operator.json")
    check = run_cli(["check", operator], capsys)
    decompose = run_cli(["decompose", operator], capsys)
    assert check[0] == decompose[0] == 1
    assert check[1] == decompose[1]
    assert json.loads(check[1])["bond_dims"] == [1, 2, 1]
    code, out, _ = run_cli(["check", "random:1,6,0"], capsys)
    assert code == 0
    assert json.loads(out)["rank_tol"] == 1e-10


SEEDS = st.integers(0, 2**16)
OPERATORS = st.one_of(
    st.sampled_from(["cnot", "shor"]),
    st.builds("ghz:{}".format, st.integers(2, 6)),
    st.builds("cloner:{}".format, st.integers(2, 4)),
    st.integers(1, 6).flatmap(
        lambda n: st.builds("random:{},{},{}".format, st.integers(1, n), st.just(n), SEEDS)
    ),
    # (qubits, first qubit of the Z x Z, log10 of its angle, seed) of a perturbed product
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n - 1), st.floats(-12, -2), SEEDS)
    ),
)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(operator=OPERATORS)
def test_check_and_decompose_never_disagree(operator, tmp_path, capsys):
    if isinstance(operator, tuple):
        operator = _perturbed_product(*operator, tmp_path / "operator.json")
    check = run_cli(["check", operator], capsys)
    decompose = run_cli(["decompose", operator], capsys)
    assert check[0] == decompose[0]
    assert check[0] in (0, 1)
    assert check[2] == decompose[2] == ""
    if check[0] == 1:
        assert check[1] == decompose[1]


@pytest.mark.parametrize("error", [MemoryError("cannot allocate"), RuntimeError("boom")])
def test_unexpected_exception_exits_2(error, capsys, monkeypatch):
    def fail(*_):
        raise error

    monkeypatch.setattr(cli, "load_operator", fail)
    code, out, err = run_cli(["check", "ghz:45"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {type(error).__name__}: {error}\n"


def test_operator_file_round_trip_is_bitwise():
    u = shor_encoder()
    text = formats.dumps(operator_doc(u))
    back = formats.doc_to_isometry(json.loads(text))
    assert np.array_equal(back.matrix, u.matrix)


def test_plan_file_round_trip_is_bitwise(tmp_path):
    u = shor_encoder()
    plan = build_plan(u)
    from seqdecomp import sequentiality_test

    doc = formats.plan_to_doc(plan, verify_plan(plan, u))
    assert doc["report"]["residuals"] == sequentiality_test(u).per_site_residuals
    text = formats.dumps(doc)
    back = formats.doc_to_plan(json.loads(text))
    assert back.ancilla_dim == plan.ancilla_dim
    assert back.bond_dims == plan.bond_dims
    for a, b in zip(back.steps, plan.steps):
        assert np.array_equal(a, b)
    # a plan read back carries no report, so it cannot be written again
    with pytest.raises(ContractViolationError, match="no criterion report"):
        formats.plan_to_doc(back, verify_plan(back, u))


@pytest.mark.parametrize(
    "bond_dims",
    [
        [True, True, True, True],
        [1, 2.0, 2, 1],
        [1, "2", 2, 1],
        [1, None, 2, 1],
        [1, [2], 2, 1],
        [2, 2, 2, 1],
        [1, 2, 2, 2],
        [1, 3, 2, 1],
        [1, 0, 2, 1],
        [1, -2, 2, 1],
        [1, 2, 1],
        [1, 2, 2, 2, 1],
        [],
    ],
    ids=[
        "booleans", "float", "string", "null", "list", "left-boundary-2", "right-boundary-2",
        "above-ancilla", "zero", "negative", "too-short", "too-long", "empty",
    ],
)
def test_simulate_rejects_invalid_plan_bond_dims(bond_dims, tmp_path, capsys):
    path = tmp_path / "plan.json"
    assert run_cli(["decompose", "ghz:3", "-o", str(path)], capsys)[0] == 0
    doc = json.loads(path.read_text())
    assert (doc["ancilla_dim"], doc["bond_dims"]) == (2, [1, 2, 2, 1])
    doc["bond_dims"] = bond_dims
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["simulate", str(path), "--input-state", "0"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}.bond_dims")


@pytest.mark.parametrize("m_in", [0, 4])
def test_simulate_rejects_a_plan_m_in_out_of_range(m_in, tmp_path, capsys):
    path = tmp_path / "plan.json"
    assert run_cli(["decompose", "ghz:3", "-o", str(path)], capsys)[0] == 0
    doc = json.loads(path.read_text())
    doc["m_in"] = m_in
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["simulate", str(path), "--input-state", "0"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {path}.m_in: {m_in} out of range for 3 steps\n"


def _step_bytes(step):
    return base64.b64decode(step, validate=True)


def _encoded(raw):
    return base64.b64encode(raw).decode()


#: faults in block k of the random:1,3,0 plan, whose blocks are 8 x 2, 4 x 4
#: and 2 x 2, and what each makes of its step and its block q
_BLOCK_FAULTS = {
    # a plan file as written before its steps were base64: [re, im] pairs
    "nested list": (1, lambda step, q: encode_matrix(q)),
    "number": (0, lambda step, q: 1.0),
    "null": (2, lambda step, q: None),
    "outside the alphabet": (1, lambda step, q: step[:4] + "-" + step[5:]),
    "whitespace": (0, lambda step, q: step[:8] + "\n" + step[8:]),
    "bad padding": (2, lambda step, q: step.rstrip("=") + "A"),
    "short row": (1, lambda step, q: _encoded(_step_bytes(step)[:-16])),
    "missing row": (2, lambda step, q: _encoded(_step_bytes(step)[: -16 * q.shape[1]])),
    "long row": (0, lambda step, q: _encoded(_step_bytes(step) + bytes(16))),
    # the bytes of the 2 x 8 transpose, as many as the block's
    "transposed": (0, lambda step, q: encode_block_entries(q.T)),
    "nan": (1, lambda step, q: encode_block_entries([[math.nan, *q[0, 1:]], *q[1:]])),
    "not orthonormal": (2, lambda step, q: encode_block_entries(2 * q)),
}


@pytest.mark.parametrize("fault", [*_BLOCK_FAULTS, "completed"])
def test_simulate_rejects_malformed_plan_blocks(fault, tmp_path, capsys):
    path = tmp_path / "plan.json"
    assert run_cli(["decompose", "random:1,3,0", "-o", str(path)], capsys)[0] == 0
    doc = json.loads(path.read_text())
    plan = formats.doc_to_plan(doc)
    assert [q.shape for q in plan.blocks] == [(8, 2), (4, 4), (2, 2)]
    if fault == "completed":  # the 8 x 8 steps that plan files held before their blocks
        doc["steps"] = [encode_block_entries(step) for step in plan.steps]
        k = 0
    else:
        k, corrupt = _BLOCK_FAULTS[fault]
        doc["steps"][k] = corrupt(doc["steps"][k], plan.blocks[k])
    q = plan.blocks[k]
    rows, cols = q.shape
    if fault == "nan":
        expected = f"non-finite entry in the {rows}x{cols} block"
    elif fault in ("transposed", "not orthonormal"):
        read = np.ascontiguousarray(q.T).reshape(q.shape) if fault == "transposed" else 2 * q
        residual = isometry_residual(read)
        assert residual > 0.1
        expected = f"columns are not orthonormal: residual {residual:.3e} in the {rows}x{cols} block"
    else:
        expected = f"expected a {rows}x{cols} complex128 block as base64 of {16 * rows * cols} bytes"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["simulate", str(path), "--input-state", "0"], capsys)
    assert (code, out, err) == (2, "", f"error: {path}.steps[{k}]: {expected}\n")


def test_a_product_plan_file_holds_its_whole_steps(tmp_path, capsys):
    # at ancilla 1 every step of a product is an input step, whose block is
    # the whole 2 x 2 step, so its plan file is what it was when files held
    # the completed steps
    rng = np.random.default_rng(45)
    factors = tmp_path / "factors.json"
    factors.write_text(formats.dumps([haar_unitary(2, rng) for _ in range(5)]))
    path = tmp_path / "plan.json"
    assert run_cli(["decompose", "product", "--factors", str(factors), "-o", str(path)], capsys)[0] == 0
    plan = formats.doc_to_plan(formats.parse_document(path.read_text(), "plan"))
    assert (plan.ancilla_dim, plan.n_out) == (1, 5)
    assert [q.tobytes() for q in plan.blocks] == [step.tobytes() for step in plan.steps]
    assert all(q.shape == (2, 2) for q in plan.blocks)


@pytest.mark.parametrize("operator", ["shor", "cloner:3", "random:1,6,0", "product"])
def test_decompose_and_simulate_complete_no_step(operator, tmp_path, capsys, monkeypatch):
    calls = []
    complete = sequencer.complete_to_unitary
    monkeypatch.setattr(sequencer, "complete_to_unitary", lambda cols: calls.append(1) or complete(cols))
    path = tmp_path / "plan.json"
    assert run_cli(["decompose", operator, "-o", str(path)], capsys)[0] == 0
    plan = formats.doc_to_plan(formats.parse_document(path.read_text(), "plan"))
    for extra in ([], ["--reduce", str(plan.n_out)]):
        argv = ["simulate", str(path), f"--input-state={'+' * plan.m_in}", *extra]
        assert run_cli(argv, capsys)[0] == 0
    assert calls == []
    # reading the steps completes each once
    assert plan.steps is plan.steps
    assert len(calls) == plan.n_out


def test_main_builds_the_parser_once(monkeypatch, capsys):
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        first = run_cli(["check", "ghz:3"], capsys)
        with pytest.raises(SystemExit) as exc:
            main(["check", "ghz:3", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(["check", "cnot"], capsys)[0] == 1
        assert run_cli(["check", "ghz:3"], capsys) == first
        assert first[0] == 0 and len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(["check", "shor"], capsys)
    _, second, _ = run_cli(["check", "shor"], capsys)
    assert first == second


def run_command(argv, stdout=subprocess.PIPE, cwd=None, launcher=()):
    """``python -m seqdecomp argv`` on the package under test, started through
    ``launcher`` if one is given, with standard output block-buffered as when
    the command runs normally."""
    command = [*launcher, sys.executable, "-m", "seqdecomp", *argv]
    return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, cwd=cwd, env=child_env())


def child_env():
    """The environment of a child Python that imports the package under test."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


ENTRY_POINT_ROWS = {
    "check-shor": (["check", "shor"], 0),
    "check-cnot": (["check", "cnot"], 1),
    "decompose-shor": (["decompose", "shor", "-o", "plan.json"], 0),
    "simulate-label": (["simulate", "shor.json", "--input-state", "+"], 0),
    "simulate-amplitudes": (["simulate", "shor.json", "--input-state", "[0.6, [0, 0.8]]"], 0),
    "simulate-reduce": (["simulate", "shor.json", "--input-state=-", "--reduce", "2"], 0),
    "info-cnot": (["info", "cnot"], 0),
    "info-product": (["info", "product", "--factors", "factors.json"], 0),
    "usage-error": (["check", "shor", "--no-such-flag"], 2),
    "missing-file": (["check", "missing.json"], 2),
}


@pytest.mark.parametrize(
    "argv, code", ENTRY_POINT_ROWS.values(), ids=ENTRY_POINT_ROWS.keys()
)
def test_console_entry_point_matches_main(argv, code, tmp_path, capsys, monkeypatch):
    # the command ends with os._exit once its output is flushed; it must exit,
    # print and write files exactly as main does in process
    runs = {}
    for where in ("main", "command"):
        folder = tmp_path / where
        folder.mkdir()
        monkeypatch.chdir(folder)
        rng = np.random.default_rng(8)
        (folder / "factors.json").write_text(
            formats.dumps([haar_unitary(2, rng) for _ in range(3)])
        )
        assert run_cli(["decompose", "shor", "-o", "shor.json"], capsys)[0] == 0
        if where == "main":
            try:
                status = main(list(argv))
            except SystemExit as exc:
                status = exc.code
            out, err = capsys.readouterr()
            runs[where] = [status, out.encode(), err.encode()]
        else:
            proc = run_command(argv, cwd=folder)
            runs[where] = [proc.returncode, proc.stdout, proc.stderr]
        runs[where].append({p.name: p.read_bytes() for p in folder.iterdir()})
    assert runs["command"] == runs["main"]
    assert runs["main"][0] == code
    assert ("plan.json" in runs["main"][3]) == (argv[0] == "decompose")


def _full_device(argv):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "wb") as full:
        return run_command(argv, stdout=full)


def _closed_pipe(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        return run_command(argv, stdout=write_end)
    finally:
        os.close(write_end)


def _closed_descriptor(argv):
    # sh closes descriptor 1, then runs the command in its own place
    return run_command(argv, stdout=None, launcher=["sh", "-c", 'exec "$@" >&-', "sh"])


UNWRITABLE_STDOUT = {
    "full-device": _full_device,
    "closed-pipe": _closed_pipe,
    "closed-descriptor": _closed_descriptor,
}


@pytest.mark.parametrize("output", ["small", "large", "none"])
@pytest.mark.parametrize("run", UNWRITABLE_STDOUT.values(), ids=UNWRITABLE_STDOUT.keys())
def test_unwritable_stdout_exits_2_with_one_error_line(run, output, tmp_path, capsys):
    # a small document waits in the buffer for the final flush; a large one
    # fails while main is still printing it; a failed request has printed
    # its own error line and nothing on stdout
    if output == "small":
        argv = ["check", "shor"]
    elif output == "large":
        plan = tmp_path / "plan.json"
        assert run_cli(["decompose", "random:1,8,0", "-o", str(plan)], capsys)[0] == 0
        argv = ["simulate", str(plan), "--input-state", "0"]
        assert len(run_cli(argv, capsys)[1]) > io.DEFAULT_BUFFER_SIZE
    else:
        argv = ["check", str(tmp_path / "missing.json")]
    proc = run(argv)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


UNUSABLE_STDERR = {"closed": 'exec "$@" 2>&-', "read-only": 'exec "$@" 2</dev/null'}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "missing.json"], 2),
        (["check", "shor", "--no-such-flag"], 2),
        (["check", "cnot"], 1),
    ],
    ids=["missing-file", "usage-error", "rejected"],
)
@pytest.mark.parametrize("redirect", UNUSABLE_STDERR.values(), ids=UNUSABLE_STDERR.keys())
def test_an_unusable_stderr_changes_neither_exit_code_nor_stdout(redirect, argv, code, tmp_path):
    # the error line is lost; with descriptor 2 closed, print and argparse
    # would otherwise write it, or the usage, to stdout
    proc = run_command(argv, cwd=tmp_path, launcher=["sh", "-c", redirect, "sh"])
    usable = run_command(argv, cwd=tmp_path)
    assert (usable.returncode, bool(usable.stderr)) == (code, code == 2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, usable.stdout, b"")


def test_decompose_does_not_import_numpy_ma():
    # numpy.ma costs each process about 12 ms and 1.6 MB to import
    code = (
        "import contextlib, io, sys\n"
        "from seqdecomp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['decompose', 'shor']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_simulate_imports_neither_mps_nor_oplib(tmp_path, capsys):
    # a plan runs as it stands: no canonical form, no operator, no random draw
    plan = tmp_path / "plan.json"
    assert run_cli(["decompose", "shor", "-o", str(plan)], capsys)[0] == 0
    code = (
        "import contextlib, io, sys\n"
        "import seqdecomp\n"
        "print('numpy' in sys.modules)\n"
        "import numpy\n"
        "unwanted = {'seqdecomp.mps', 'seqdecomp.oplib'}\n"
        "if 'numpy.random' not in sys.modules:  # numpy before 2.0 imports it itself\n"
        "    unwanted.add('numpy.random')\n"
        "from seqdecomp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['simulate', {str(plan)!r}, '--input-state=0']) == 0\n"
        "print(sorted(unwanted & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n[]\n", "")


@pytest.mark.parametrize("command", ["check", "decompose", "info"])
def test_no_command_on_a_fixed_operator_imports_numpy_random(command, tmp_path):
    # numpy.random costs each process about 5.6 MB and 4.5 ms to import;
    # only the random: builtin draws from it
    operators = ["cnot", "shor", "ghz:4", "cloner:2", "product"]
    output = ["-o", str(tmp_path / "plan.json")] if command == "decompose" else []
    code = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "unwanted = set()\n"
        "if 'numpy.random' not in sys.modules:  # numpy before 2.0 imports it itself\n"
        "    unwanted.add('numpy.random')\n"
        "from seqdecomp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main([{command!r}, op, *{output!r}]) for op in {operators!r}]\n"
        "print(codes, sorted(unwanted & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    codes = [1 if op == "cnot" and command != "info" else 0 for op in operators]
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{codes} []\n", "")


@pytest.mark.parametrize("command", ["check", "decompose", "info", "simulate"])
def test_no_command_imports_dataclasses(command, tmp_path, capsys):
    # building a dataclass execs its generated methods at import, several
    # ms of each process's start-up
    if command == "simulate":
        plan = tmp_path / "plan.json"
        assert run_cli(["decompose", "shor", "-o", str(plan)], capsys)[0] == 0
        argv = ["simulate", str(plan), "--input-state=0"]
    else:
        argv = [command, "shor"]
    code = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "unwanted = set()\n"
        "if 'dataclasses' not in sys.modules:  # an older numpy may import it itself\n"
        "    unwanted.add('dataclasses')\n"
        "from seqdecomp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(sorted(unwanted & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


COMPLETION_OPERATORS = ["shor", "ghz:6", "cloner:3", "cloner:4", "product"] + [
    f"random:1,{n},{30 + n}" for n in range(2, 9)
]


@pytest.mark.parametrize("operator", COMPLETION_OPERATORS)
def test_chain_never_reaches_the_completed_columns(operator, tmp_path, capsys, monkeypatch):
    # a plan file holds no completed column: each of its steps is a block,
    # the defined columns in the shape the bonds fix.  Steps completed by
    # Gram–Schmidt over the standard basis hold each block, zero padded, in
    # the columns the chain reaches, so the references that run the
    # completed steps agree with the chain, also with Haar columns in place
    # of the last block
    factors = tmp_path / "factors.json"
    rng = np.random.default_rng(44)
    factors.write_text(formats.dumps([haar_unitary(2, rng) for _ in range(4)]))
    path = tmp_path / "plan.json"
    decompose = ["decompose", operator, *factors_option(operator, factors), "-o", str(path)]
    assert run_cli(decompose, capsys)[0] == 0
    plan = formats.doc_to_plan(formats.parse_document(path.read_text(), "plan"))
    b, m = plan.bond_dims, plan.m_in
    shapes = [(2 * b[k + 1], (2 if k < m else 1) * b[k]) for k in range(plan.n_out)]
    assert [q.shape for q in plan.blocks] == shapes
    with monkeypatch.context() as patched:
        patched.setattr(sequencer, "complete_to_unitary", complete_to_unitary_loops)
        steps = plan.steps
    for k, (step, q) in enumerate(zip(steps, plan.blocks, strict=True)):
        rows, cols = q.shape
        reached = step[:, :cols] if k < m else step[:, : 2 * cols : 2]
        assert reached[:rows].tobytes() == q.tobytes()
        assert not reached[rows:].any()
    u = cli.load_operator(operator, str(factors) if operator == "product" else None)
    for p in (plan, corrupted(plan, plan.n_out - 1, rng)):
        assert abs(verify_plan(p, u).max_error - verify_plan_loops(p, u)[0]) <= 1e-14
        for label in ["0" * m, "+" * m, ("-1" * m)[:m]]:
            psi = cli._parse_input_state(label, p)
            psi = psi / np.linalg.norm(psi)
            assert np.max(np.abs(sequencer.simulate(p, psi) - simulate_full_state(p, psi)[0])) <= 1e-14
