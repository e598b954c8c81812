"""Tests for the command-line interface and the file formats."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from seqdecomp import (
    build_plan,
    ghz_state,
    haar_unitary,
    operator_schmidt_ranks,
    operator_to_mps,
    shor_encoder,
)
from seqdecomp import cli, formats, sequencer
from seqdecomp.cli import main


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


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
    assert len(doc["steps"]) == 9
    assert all(len(step) == 8 and len(step[0]) == 8 for step in doc["steps"])
    assert doc["report"]["decoupling_residual"] < 1e-10


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


def test_simulate_shor_plus(tmp_path, capsys):
    path = tmp_path / "plan.json"
    run_cli(["decompose", "shor", "-o", str(path)], capsys)
    code, out, _ = run_cli(["simulate", str(path), "--input-state", "+"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["decoupling_residual"] < 1e-10
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


def test_simulate_amplitude_list_input(tmp_path, capsys):
    path = tmp_path / "plan.json"
    run_cli(["decompose", "ghz:2", "-o", str(path)], capsys)
    code, out, _ = run_cli(
        ["simulate", str(path), "--input-state", "[[1,0],[0,0]]"], capsys
    )
    assert code == 0
    amps = json.loads(out)["amplitudes"]
    assert np.isclose(amps[0][0], 1 / math.sqrt(2))


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


@pytest.mark.parametrize("operator", ["cnot", "product", "random:3,3,7"])
def test_info_schmidt_ranks_match_the_operator_witness(operator, tmp_path, capsys):
    # info reads the ranks off the canonical bonds; the witness cuts the
    # dense operator directly
    rng = np.random.default_rng(4)
    path = tmp_path / "factors.json"
    path.write_text(formats.dumps([haar_unitary(2, rng) for _ in range(4)]))
    code, out, _ = run_cli(["info", operator, "--factors", str(path)], capsys)
    assert code == 0
    u = cli.load_operator(operator, str(path))
    assert json.loads(out)["schmidt_ranks"] == list(operator_schmidt_ranks(u))


def test_decompose_canonicalizes_once(monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return operator_to_mps(*args, **kwargs)

    monkeypatch.setattr(sequencer, "operator_to_mps", counted)
    monkeypatch.setattr(cli, "operator_to_mps", counted)
    code, _, _ = run_cli(["decompose", "shor"], capsys)
    assert code == 0
    assert len(calls) == 1


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"m_qubits": 1,')
    code, out, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "line" in err


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
    [("cloner:0", "need at least one clone"), ("ghz:0", "need at least one output qubit")],
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


def test_tolerance_bounds(capsys):
    # "-1" after the flag is read as its value; it used to turn every
    # verdict into a rejection (exit 1)
    for value in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "shor", "--crit-tol", value])
        assert exc.value.code == 2
    code, out, _ = run_cli(["check", "shor", "--rank-tol", "0"], capsys)
    assert code == 0
    assert json.loads(out)["rank_tol"] == 0.0


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
    text = formats.dumps(formats.isometry_to_doc(u))
    back = formats.doc_to_isometry(json.loads(text))
    assert np.array_equal(back.matrix, u.matrix)


def test_plan_file_round_trip_is_bitwise(tmp_path):
    u = shor_encoder()
    plan = build_plan(u)
    from seqdecomp import sequentiality_test, verify_plan

    doc = formats.plan_to_doc(plan, sequentiality_test(u), verify_plan(plan, u))
    text = formats.dumps(doc)
    back = formats.doc_to_plan(json.loads(text))
    assert back.ancilla_dim == plan.ancilla_dim
    assert back.bond_dims == plan.bond_dims
    for a, b in zip(back.steps, plan.steps):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "bond_dims",
    [[True, True, True, True], [2, 2, 2, 1], [1, 2, 2, 2], [1, 3, 2, 1]],
    ids=["booleans", "left-boundary-2", "right-boundary-2", "above-ancilla"],
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
    assert "bond_dims" in err


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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "seqdecomp", "check", "cnot"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["implementable"] is False
