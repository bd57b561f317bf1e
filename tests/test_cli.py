"""Command-line front end: dispatch, config handling, formats, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import treebound
from treebound import FieldSpec, Strip, Subtree, field_values, region_nodes
from treebound import verify as verify_mod
from treebound import cli as cli_mod
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
    # numpy is the package's only runtime dependency: no scipy module at all
    probe = ("import sys, treebound.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
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


# sha256 of `verify-davydov --spaces 300 --seed 5` stdout as it read before the
# spaces were checked in blocks: 8 atoms and 64 outcomes (the defaults), and
# 12 atoms and 128 outcomes; alpha, lhs and rhs of every space, bit for bit
_DAVYDOV_SHA256 = {
    (): "4b9e2cf8d2b623c1a66779322d42ae42e045a569d77b8773541fe018d6cacf05",
    ("--max-atoms", "12", "--max-outcomes", "128"):
        "8d79aa766320bd8632e44616022a02efbce530653cdcbdf6f2a540f82078e222",
}
_DAVYDOV = ["verify-davydov", "--spaces", "300", "--seed", "5"]


@pytest.mark.parametrize("block", [1, 7, 256])
def test_verify_davydov_stdout_pinned_for_every_block_size(capsys, monkeypatch, block):
    monkeypatch.setattr(cli_mod, "DAVYDOV_BLOCK", block)
    for shape, digest in _DAVYDOV_SHA256.items():
        code, out, err = run(capsys, *_DAVYDOV, *shape)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("block", [1, 7, 256])
def test_verify_davydov_names_the_first_space_over_the_atom_cap(capsys, monkeypatch, block):
    # the first space over the cap is space 4 at 64 outcomes and space 10 at 128,
    # where space 13, in the same block of 7, is over it too
    monkeypatch.setattr(cli_mod, "DAVYDOV_BLOCK", block)
    for outcomes, counts in (("64", "12 and 13"), ("128", "5 and 13")):
        code, out, err = run(capsys, *_DAVYDOV, "--max-atoms", "13", "--max-outcomes", outcomes)
        assert (code, out) == (3, "")
        assert err == f"error: exact mixing coefficient capped at 12 atoms per partition, got {counts}\n"


def test_verify_davydov_prints_alpha_zero_as_positive_zero(capsys):
    # space 3 of this draw has alpha exactly 0 with a negative part of -0.0
    code, out, _ = run(capsys, "verify-davydov", "--spaces", "12", "--seed", "3",
                       "--max-atoms", "12", "--max-outcomes", "128")
    assert code == 0
    assert '"alpha": 0.0,' in out.splitlines()[3]
    assert "-0.0" not in out


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
    code, _, err = run(capsys, "mc-tail", "--rate", "2", "--region", "strip(3,2)",
                       "--field", "independent", "--C", "1e-320", "--epsilons", "1",
                       "--replicates", "100")
    assert code == 3
    assert err.startswith("error:") and "C*P2" in err


@pytest.mark.parametrize("argv,key", [
    (["mc-tail", "--rate", "2.5"], "rate"),
    (["mc-tail", "--C", "abc"], "C"),
    (["mc-tail", "--replicates", "1e3"], "replicates"),
    (["mc-tail", "--workers", ""], "workers"),
    (["simulate", "--seed", "nan"], "seed"),
    (["bernstein-bound", "--beta", "x"], "beta"),
    (["concentration-bound", "--eta", "0.5.1"], "eta"),
])
def test_malformed_option_value_names_key(capsys, argv, key):
    base = {
        "mc-tail": ["--rate", "2", "--region", "strip(3,2)", "--field", "independent",
                    "--C", "1", "--epsilons", "1", "--replicates", "100"],
        "simulate": ["--rate", "2", "--region", "generations(2)", "--field", "independent",
                     "--C", "1"],
        "bernstein-bound": ["--A", "2", "--L", "5", "--P", "3", "--P2", "4", "--Q2", "4",
                            "--beta", "0.003", "--epsilon", "50", "--C", "1",
                            "--sigma2", "0.3", "--envelope", "zero"],
        "concentration-bound": ["--A", "2", "--L", "12", "--epsilon", "0.5", "--C", "1",
                                "--sigma2", "0.3", "--envelope", "zero"],
    }[argv[0]]
    code, out, err = run(capsys, argv[0], *base, *argv[1:])  # the later flag wins
    assert code == 1 and out == ""
    assert err.startswith(f"error: bad value for {key}:")


def test_malformed_config_value_names_key(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("rate = 2\nregion = generations(2)\nfield = independent\nC = 1\n"
                   "replicate = 0.5\n")
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error: bad value for replicate:")


@pytest.mark.parametrize("argv", [
    ["bernstein-bound", "--A", "2"],
    ["concentration-bound", "--A", "2"],
    ["embedding-check", "--rate", "2", "--layout", "row", "--depth", "3", "--kmax", "3"],
])
def test_json_only_subcommands_reject_csv(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 1 and out == ""
    assert "--format" in err and "csv" in err


def test_verify_davydov_csv_matches_json(capsys):
    args = ["verify-davydov", "--spaces", "4", "--seed", "3", "--max-atoms", "5"]
    code, out, _ = run(capsys, *args)
    rows = [json.loads(line) for line in out.splitlines()]
    code_csv, csv, _ = run(capsys, *args, "--format", "csv")
    assert code == code_csv == 0
    header, *lines = csv.splitlines()
    assert header.split(",") == list(rows[0])
    assert lines == [",".join(str(v) for v in row.values()) for row in rows]


@pytest.mark.parametrize("replicate", ["-1", str(2**64)])
def test_simulate_replicate_outside_uint64_exits_one(capsys, replicate):
    code, out, err = run(capsys, "simulate", "--rate", "2", "--region", "generations(3)",
                         "--field", "independent", "--C", "1", "--replicate", replicate)
    assert code == 1 and out == ""
    assert "replicate" in err


@pytest.mark.parametrize("argv,code", [
    (["count-pairs", "--rate", "1", "--gens", "-3"], 1),
    (["count-pairs", "--rate", "2", "--gens", "0"], 1),
    (["count-pairs", "--rate", "2", "--gens", "3", "--dist", "0"], 1),
    (["count-pairs", "--rate", "2", "--gens", "15000", "--dist", "1"], 3),
    (["count-pairs", "--rate", "3", "--gens", str(2**63)], 3),
    (["embedding-check", "--rate", "3", "--layout", "row", "--dim", "1", "--depth", "9100",
      "--kmax", "2"], 3),
    (["embedding-check", "--rate", str(2**63), "--layout", "packed", "--dim", "1",
      "--depth", "0", "--constant", "1", "--kmax", "2"], 1),
    (["mc-tail", "--rate", "2", "--region", "generations(2000)", "--field", "independent",
      "--C", "1", "--epsilons", "1", "--replicates", "100"], 3),
    (["verify-davydov", "--spaces", "1", "--seed", "-1"], 1),
    (["verify-davydov", "--spaces", "1", "--max-atoms", "0"], 1),
    (["verify-davydov", "--spaces", "1", "--p", "nan", "--q", "0"], 1),
])
def test_unbounded_and_invalid_sizes_exit_cleanly(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error:")


_EMBED = ["embedding-check", "--rate", "2", "--layout", "row", "--depth", "3", "--kmax", "3"]


@pytest.mark.parametrize("argv,flag", [
    (["verify-davydov", "--spaces", "0"], "--spaces"),
    (["verify-davydov", "--spaces", "-1"], "--spaces"),
    (_EMBED + ["--constant", "nan"], "--constant"),
    (_EMBED + ["--constant", "inf"], "--constant"),
    (_EMBED + ["--constant=-inf"], "--constant"),
])
def test_bad_count_or_constant_exits_one_naming_the_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and flag in err and "unmapped" not in err


def test_count_pairs_distance_past_the_subtree_prints_zero(capsys):
    code, out, _ = run(capsys, "count-pairs", "--rate", "2", "--gens", "3", "--dist", str(2**63))
    assert code == 0
    assert out == f"A,P,L,N\n2,3,{2**63},0\n"


# The README grammar with extreme values.  Sizes that set how much work a run
# does (replicates, spaces, depths, workers) only take values that fail fast.
_BIG = str(2**63)
_EXTREMES = ("0", "-1", _BIG, "1e154", "1e308", "1e-320", "nan", "inf", "2.5", "abc", "")
_SMALL = tuple(v for v in _EXTREMES if v != _BIG)
_ENVELOPES = ("zero", "m_dependent(1)", "table(0.1,0.05)", "super_exponential(2)")
_REGIONS = ("strip(3,2)", "generations(4)", "subtree(1,1,2)", "strip(70,1)", "generations(2000)")
_FIELDS = ("independent", "m_dependent(1)", "branching_ar(0.8)")
# subcommand -> [(flag, typical values (None: absent), size?)]
_GRAMMAR = {
    "count-pairs": [("rate", ("2", "3"), False), ("gens", ("1", "4", "40"), False),
                    ("dist", (None, "1", "3"), False), ("format", (None, "csv", "json"), False)],
    "bernstein-bound": [
        ("A", ("2", "3"), False), ("L", ("5", "2000"), True), ("P", ("3",), True),
        ("P2", ("4",), False), ("Q2", ("4",), False), ("beta", ("0.003",), False),
        ("epsilon", ("50",), False), ("C", ("1",), False), ("sigma2", ("0.3",), False),
        ("envelope", _ENVELOPES, False), ("format", (None, "json"), False)],
    "concentration-bound": [
        ("A", ("2", "3"), False), ("L", ("12", "2000"), True), ("epsilon", ("0.5",), False),
        ("C", ("1",), False), ("sigma2", ("0.3",), False), ("envelope", _ENVELOPES, False),
        ("eta", (None, "0.5"), False), ("D", (None, "1"), False)],
    "mc-tail": [
        ("rate", ("2",), False), ("region", _REGIONS, False), ("field", _FIELDS, False),
        ("C", ("1",), False), ("epsilons", ("1,2", "0.05"), False),
        ("replicates", ("100",), True), ("seed", (None, "5"), False),
        ("workers", (None, "1", "2"), True), ("eta", (None, "0.5"), False),
        ("D", (None, "1"), False), ("P2", (None, "2"), False), ("Q2", (None, "2"), False),
        ("beta", (None, "0.002"), False), ("format", (None, "json", "csv"), False)],
    "verify-davydov": [
        ("spaces", ("1", "3"), True), ("seed", (None, "3"), False), ("p", (None, "4"), False),
        ("q", (None, "4"), False), ("r", (None, "2"), False),
        ("max-outcomes", (None, "8"), True), ("max-atoms", (None, "4"), True),
        ("format", (None, "json", "csv"), False)],
    "embedding-check": [
        ("rate", ("2", "3"), False), ("layout", ("row", "packed"), False),
        ("dim", ("1", "2"), True), ("depth", ("3", "9100"), True),
        ("constant", (None, "1"), False), ("kmax", ("4",), False)],
    "simulate": [
        ("rate", ("2",), False), ("region", _REGIONS, False), ("field", _FIELDS, False),
        ("C", ("1",), False), ("seed", (None, "3"), False), ("replicate", (None, "0"), False),
        ("format", (None, "csv", "json"), False)],
}


@st.composite
def _cli_argv(draw):
    """A subcommand with typical values, one to three of them replaced by
    an extreme value or dropped."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    flags = _GRAMMAR[command]
    values = {name: draw(st.sampled_from(typical)) for name, typical, _ in flags}
    for name, _, size in draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3,
                                       unique=True)):
        values[name] = draw(st.sampled_from(_SMALL if size else (None, *_EXTREMES)))
    argv = [command]
    for name, value in values.items():
        if value is not None:
            argv += [f"--{name}", value]
    return argv


@settings(max_examples=500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_argv())
def test_cli_fuzz_ends_in_an_exit_code(capsys, argv):
    assert main(argv) in (0, 1, 2, 3)
    capsys.readouterr()


def test_binary_config_file_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bound.cfg"
    cfg.write_bytes(b"A = \xff\xfe\n")
    code, _, err = run(capsys, "bernstein-bound", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error:") and "not a text file" in err
