"""Command-line front end: dispatch, config handling, formats, exit codes."""

import json

import pytest

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
