"""Command-line front end: dispatch, config handling, formats, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import treebound
from treebound import FieldSpec, Strip, Subtree, field_values, region_nodes
from treebound import verify as verify_mod
from treebound.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_pairs_csv(capsys):
    code, out, _ = run(capsys, "count-pairs", "--rate", "2", "--gens", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "A,P,L,N"
    assert "2,2,1,4" in lines
    assert "2,2,2,2" in lines


def test_count_pairs_single_distance_json(capsys):
    code, out, _ = run(capsys, "count-pairs", "--rate", "3", "--gens", "4",
                       "--dist", "3", "--format", "json")
    assert code == 0
    row = json.loads(out)
    # 198 is pinned by the enumeration oracle (test_paircount covers equality)
    assert row == {"A": 3, "P": 4, "L": 3, "N": 198}


def test_unknown_flag_is_named(capsys):
    code, _, err = run(capsys, "count-pairs", "--rate", "2", "--gens", "2", "--bogus")
    assert code == 1
    assert "--bogus" in err


def test_bernstein_bound_json_fields(capsys):
    code, out, _ = run(
        capsys, "bernstein-bound", "--A", "2", "--L", "5", "--P", "3",
        "--P2", "4", "--Q2", "4", "--beta", "0.003", "--epsilon", "50",
        "--C", "1", "--sigma2", "0.333333", "--envelope", "zero",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "log_factor_markov", "log_factor_mixing", "log_factor_variance",
        "variance_proxy", "block_count", "log_total", "log_total_clamped",
        "indicator_wedge",
    }
    assert payload["log_factor_mixing"] == 0.0


def test_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(
        "A = 2\nL = 5\nP = 3\nP2 = 4\nQ2 = 4\nbeta = 0.003\n"
        "epsilon = 50\nC = 1\nsigma2 = 0.333333\nenvelope = zero\n"
    )
    code, out1, _ = run(capsys, "bernstein-bound", "--config", str(cfg))
    assert code == 0
    # an override shifts only the Markov factor
    code, out2, _ = run(capsys, "bernstein-bound", "--config", str(cfg),
                        "--epsilon", "500")
    assert code == 0
    a, b = json.loads(out1), json.loads(out2)
    assert b["log_total"] < a["log_total"]
    assert b["log_factor_variance"] == a["log_factor_variance"]


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("A = 2\nwibble = 3\n")
    code, _, err = run(capsys, "bernstein-bound", "--config", str(cfg))
    assert code == 1
    assert "wibble" in err


def test_missing_required_keys_reported(capsys):
    code, _, err = run(capsys, "bernstein-bound", "--A", "2")
    assert code == 1
    assert "missing required keys" in err


def test_concentration_bound_cli(capsys):
    code, out, _ = run(
        capsys, "concentration-bound", "--A", "2", "--L", "12", "--epsilon", "0.5",
        "--C", "1", "--sigma2", "0.333333", "--envelope", "zero",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["indicator_wedge"] == 0
    assert payload["log_total"] == pytest.approx(0.61, abs=0.01)


def test_mc_tail_exit_zero_and_worker_bytes(tmp_path, capsys):
    base = [
        "mc-tail", "--rate", "2", "--region", "strip(4,2)", "--field", "independent",
        "--C", "1", "--epsilons", "30,40", "--replicates", "300", "--seed", "5",
        "--P2", "2", "--Q2", "2", "--beta", "0.002",
    ]
    out1 = tmp_path / "w1.jsonl"
    out4 = tmp_path / "w4.jsonl"
    code1, _, _ = run(capsys, *base, "--workers", "1", "--out", str(out1))
    code4, _, _ = run(capsys, *base, "--workers", "4", "--out", str(out4))
    assert code1 == 0 and code4 == 0
    assert out1.read_bytes() == out4.read_bytes()
    rows = [json.loads(line) for line in out1.read_text().splitlines()]
    assert [r["epsilon"] for r in rows] == [30.0, 40.0]
    assert all(r["certified"] for r in rows)


@pytest.mark.parametrize("eps", ["800", "1600"])
def test_mc_tail_zero_exceedances_is_no_violation(capsys, eps):
    # 32 * 7 = 224 nodes with |Z| <= 1, so |sum| <= 224 < eps: the tail is 0,
    # though the bound lies below the upper limit 1 - 0.01**(1/100)
    code, out, _ = run(capsys, "mc-tail", "--rate", "2", "--region", "strip(5,3)",
                       "--field", "independent", "--C", "1", "--epsilons", eps,
                       "--replicates", "100", "--seed", "7")
    row = json.loads(out)
    assert code == 0
    assert row["n_exceed"] == 0 and row["ci_lower_99"] == 0.0
    assert math.exp(row["log_bound"]) < row["ci_upper_99"]
    assert row["violated"] is False
    assert list(row)[-1] == "ci_lower_99"


def test_mc_tail_certified_violation_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(verify_mod, "bernstein_bound",
                        lambda inp: SimpleNamespace(log_total=-50.0))
    args = ["mc-tail", "--rate", "2", "--region", "strip(4,2)", "--field", "independent",
            "--C", "1", "--epsilons", "1", "--replicates", "100", "--seed", "5"]
    code, out, _ = run(capsys, *args)
    row = json.loads(out)
    assert code == 2
    assert row["violated"] is True and row["ci_lower_99"] > math.exp(-50.0)
    code, out, _ = run(capsys, *args, "--format", "csv")
    header, line = out.splitlines()
    assert code == 2
    assert header.endswith(",certified,ci_lower_99")
    assert line.split(",")[-1] == repr(row["ci_lower_99"])


def test_cli_import_loads_no_scipy_stats():
    probe = ("import sys, treebound.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'special'], "
             "['scipy', 'optimize'])))")
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_mc_tail_partial_strip_params_rejected(capsys):
    code, _, err = run(
        capsys, "mc-tail", "--rate", "2", "--region", "strip(4,2)",
        "--field", "independent", "--C", "1", "--epsilons", "30",
        "--replicates", "200", "--P2", "2",
    )
    assert code == 1
    assert "P2" in err and "beta" in err


def test_verify_davydov_cli(capsys):
    code, out, _ = run(capsys, "verify-davydov", "--spaces", "5", "--seed", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 5
    assert all(r["holds"] for r in rows)


def test_embedding_check_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "embedding-check", "--rate", "2", "--layout", "row",
                       "--dim", "2", "--depth", "4", "--kmax", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["distortion_constant"] == 8.0
    assert payload["witness"] is None and payload["refuted"] is False
    # a map file with a small constant gets refuted
    map_file = tmp_path / "map.txt"
    lines = []
    idx = 0
    for j in range(5):
        for k in range(1, 2**j + 1):
            lines.append(f"{j} {k} {idx}")
            idx += 1
    map_file.write_text("\n".join(lines))
    code, out, _ = run(capsys, "embedding-check", "--rate", "2", "--map",
                       str(map_file), "--constant", "1", "--kmax", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["refuted"] is True
    assert payload["witness"]["k"] == 3


def test_simulate_deterministic_csv(capsys):
    args = ["simulate", "--rate", "2", "--region", "generations(3)",
            "--field", "m_dependent(1)", "--C", "1", "--seed", "7"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "j,k,value"
    assert len(lines) == 8  # header + 7 nodes


@pytest.mark.parametrize("text,region", [
    ("subtree(1,2,3)", Subtree(1, 2, 3)), ("strip(2,3)", Strip(2, 3)),
])
def test_simulate_matches_sorted_node_reference(capsys, text, region):
    # the dump of a {NodeId: value} map in sorted node order
    nodes = list(region_nodes(region, 3))
    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=5)
    values = dict(zip(nodes, field_values(spec, nodes, 3, [4])[0].tolist()))
    csv = "j,k,value\n" + "".join(f"{v.j},{v.k},{values[v]!r}\n" for v in sorted(values))
    jsonl = "".join(
        json.dumps({"j": v.j, "k": v.k, "value": values[v]}) + "\n" for v in sorted(values)
    )
    args = ["simulate", "--rate", "3", "--region", text, "--field", "m_dependent(1)",
            "--C", "1", "--seed", "5", "--replicate", "4"]
    assert run(capsys, *args) == (0, csv, "")
    assert run(capsys, *args, "--format", "json") == (0, jsonl, "")


def test_capacity_exit_code(capsys):
    code, _, err = run(capsys, "simulate", "--rate", "2", "--region",
                       "generations(30)", "--field", "independent", "--C", "1")
    assert code == 3
    assert "cap" in err


def test_bad_region_spec(capsys):
    code, _, err = run(capsys, "simulate", "--rate", "2", "--region",
                       "blob(3)", "--field", "independent", "--C", "1")
    assert code == 1
    assert "blob" in err


@pytest.mark.parametrize("eps", ["nan", "inf", "40,nan"])
def test_mc_tail_non_finite_epsilon_exits_one(capsys, eps):
    code, out, err = run(capsys, "mc-tail", "--rate", "2", "--C", "1",
                         "--region", "strip(5,3)", "--field", "independent",
                         "--replicates", "200", "--epsilons", eps)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "epsilon" in err


def test_bounds_past_float_range_exit_three(capsys):
    code, _, err = run(capsys, "bernstein-bound", "--A", "2", "--L", "1100", "--P", "3",
                       "--P2", "4", "--Q2", "4", "--beta", "0.003", "--epsilon", "50",
                       "--C", "1", "--sigma2", "0.3", "--envelope", "zero")
    assert code == 3
    assert err.startswith("error:") and "log_factor_variance" in err
    code, _, err = run(capsys, "concentration-bound", "--A", "2", "--L", "1100",
                       "--epsilon", "0.5", "--C", "1", "--sigma2", "0.3",
                       "--envelope", "zero")
    assert code == 3
    assert err.startswith("error:") and "float range" in err
    # P2**2 leaves float range from L = 542 at A = 2, C**2 above C = 1.34e154
    code, _, err = run(capsys, "concentration-bound", "--A", "2", "--L", "542",
                       "--epsilon", "3", "--C", "1", "--sigma2", "0.3",
                       "--envelope", "zero")
    assert code == 3
    assert err.startswith("error:") and "P2**2" in err
    code, _, err = run(capsys, "mc-tail", "--rate", "2", "--region", "strip(3,2)",
                       "--field", "independent", "--C", "1e308", "--epsilons", "1",
                       "--replicates", "100")
    assert code == 3
    assert err.startswith("error:") and "C**2" in err
