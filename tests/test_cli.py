"""Command-line front end: dispatch, config handling, formats, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
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


def test_count_pairs_refuses_from_the_first_gens_past_the_digit_limit(capsys):
    # N <= P (L + 2) A**(P - 1 + L/2) first reaches 4300 digits at gens 14270 (A = 2, L = 1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run(capsys, "count-pairs", "--rate", "2", "--gens", "14269", "--dist", "1")
        assert code == 0 and out.splitlines()[1].startswith("2,14269,1,")
        code, out, err = run(capsys, "count-pairs", "--rate", "2", "--gens", "14270", "--dist", "1")
        assert (code, out) == (3, "")
        assert err == "error: pair counts at distance 1 may exceed 4300 digits\n"
    finally:
        sys.set_int_max_str_digits(limit)


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


@pytest.mark.parametrize("field", ["independent", "m_dependent(1)", "branching_ar(0.5)"])
def test_mc_tail_stdout_is_the_same_at_every_worker_count(capsys, field):
    # 1001 replicates fill no whole number of tiles (64 rows of 1023 nodes, 32 of
    # the m-dependent field's 2047 support nodes), whole or split 2 or 3 ways
    base = ["mc-tail", "--rate", "2", "--region", "generations(10)", "--field", field,
            "--C", "1", "--epsilons", "0.01,0.02,0.05", "--replicates", "1001", "--seed", "9"]
    runs = [run(capsys, *base, "--workers", str(w)) for w in (1, 2, 3)]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    assert runs[0][1] and runs[1][1] == runs[0][1] and runs[2][1] == runs[0][1]


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


def test_cli_import_loads_no_concurrent_module():
    # mc-tail's workers are forked processes: no executor (nor logging) at import
    probe = ("import sys, treebound.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'logging')))")
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forked workers")
def test_forked_workers_write_no_copy_of_the_parents_stdout_buffer():
    # stdout to a pipe is block-buffered: a line written but not flushed before
    # the workers fork must reach the pipe once, from the parent alone
    argv = ["mc-tail", "--rate", "2", "--region", "generations(8)", "--field", "m_dependent(1)",
            "--C", "1", "--epsilons", "0.02,0.05", "--replicates", "600", "--seed", "3"]
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    outs = []
    for workers in ("3", "1"):
        probe = ("import sys; from treebound.cli import main; sys.stdout.write('buffered\\n'); "
                 f"sys.exit(main({argv + ['--workers', workers]!r}))")
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0].count(b"buffered\n") == 1
    assert outs[0] == outs[1]


def test_cached_parser_gives_each_call_what_a_fresh_interpreter_gives(capsys):
    # one parser serves every main() call of a process, a rejected flag included
    calls = [
        ["count-pairs", "--rate", "3", "--gens", "3", "--format", "json"],
        ["count-pairs", "--rate", "2", "--gens", "3", "--bogus", "1"],
        ["simulate", "--rate", "2", "--C", "1", "--region", "generations(3)",
         "--field", "m_dependent(1)", "--seed", "5"],
    ]
    here = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in here] == [0, 1, 0]
    assert cli_mod._build_parser() is cli_mod._build_parser()
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv, (code, out, err) in zip(calls, here):
        probe = f"import sys; from treebound.cli import main; sys.exit(main({argv!r}))"
        fresh = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                               text=True, timeout=120)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err)


def test_mc_tail_partial_strip_params_rejected(capsys):
    code, _, err = run(
        capsys, "mc-tail", "--rate", "2", "--region", "strip(4,2)",
        "--field", "independent", "--C", "1", "--epsilons", "30",
        "--replicates", "200", "--P2", "2",
    )
    assert code == 1
    assert "P2" in err and "beta" in err


_MC_TAIL_BASE = ["mc-tail", "--rate", "2", "--C", "1", "--field", "independent",
                 "--replicates", "200"]


@pytest.mark.parametrize("region, eps, options, names", [
    ("generations(8)", "0.05", ["--P2", "4", "--Q2", "4", "--beta", "0.01"],
     "P2, Q2, beta cannot be given for a generations region"),
    ("strip(5,3)", "20", ["--eta", "0.9", "--D", "7"], "eta, D cannot be given for a strip region"),
    ("strip(5,3)", "20", ["--eta", "5"], "eta cannot be given for a strip region"),
])
def test_mc_tail_refuses_bound_options_its_region_does_not_use(capsys, region, eps, options,
                                                               names):
    code, out, err = run(capsys, *_MC_TAIL_BASE, "--region", region, "--epsilons", eps,
                         *options)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {names}")


@pytest.mark.parametrize("region, eps, options", [
    ("generations(8)", "0.05", ["--eta", "0.6", "--D", "0.5"]),
    ("strip(5,3)", "20", ["--P2", "4", "--Q2", "4", "--beta", "0.003"]),
])
def test_mc_tail_bound_options_of_its_region_change_the_bound(capsys, region, eps, options):
    argv = [*_MC_TAIL_BASE, "--region", region, "--epsilons", eps]
    (code, plain, _), (code_given, given, _) = run(capsys, *argv), run(capsys, *argv, *options)
    assert code == code_given == 0
    assert json.loads(given)["log_bound"] != json.loads(plain)["log_bound"]
    assert json.loads(given)["n_exceed"] == json.loads(plain)["n_exceed"]


# sha256 of the mc-tail JSON lines of each op at 300 replicates, seed 11;
# workers 1 and 2 give them
_MC_TAIL_OPS = {
    "strip-fixed": ["--region", "strip(5,3)", "--epsilons", "20,40,80",
                    "--P2", "4", "--Q2", "4", "--beta", "0.003"],
    "strip-optimized": ["--region", "strip(5,3)", "--epsilons", "20,40,80"],
    "generations": ["--region", "generations(8)", "--epsilons", "0.02,0.05,0.1"],
}
_MC_TAIL_PINS = {
    ("strip-fixed", "independent"):
        "18b022ef3b1e388c4c826428cd46585245a33721c5eccab6b11dff8b6362d504",
    ("strip-fixed", "m_dependent(1)"):
        "4ba6222dbcb7d5fad77c17d6463aee00064d183070805797d57ce8c369b231fd",
    ("strip-fixed", "branching_ar(0.8)"):
        "5e2ad592f9b300f3e136fefd0682d0d7a8591b50eff15e5e5274203dfa0557e9",
    ("strip-optimized", "independent"):
        "7055add9451cf17d176d4cf287c08311953b427583bc47aa529f7e18afbae25f",
    ("strip-optimized", "m_dependent(1)"):
        "ae515be92fb91257d6ada62d0509d0170a23f9f410f437790b5720f73b808297",
    ("strip-optimized", "branching_ar(0.8)"):
        "8337e977ec4f2df01c9cdca6c8af4c9af3d433420a3962728206b0386d1b84b8",
    ("generations", "independent"):
        "6be6e0c1cf5a43a7af53a352e507b4171bc1861706504a1ccc55c07d148e99e1",
    ("generations", "m_dependent(1)"):
        "bd44bb2ccea48a0d413b67a8be1931e18a3ba50440b604af4aea2cdc1fe37583",
    ("generations", "branching_ar(0.8)"):
        "0f1479788e4bd33fdc23232f2b4c06a083f0bdeb734841d3bb11ad2db70ecfd7",
}


@pytest.mark.parametrize("op, field", _MC_TAIL_PINS, ids=[f"{op}-{f}" for op, f in _MC_TAIL_PINS])
def test_mc_tail_lines_are_pinned(capsys, op, field):
    for workers in ("1", "2"):
        code, out, _ = run(capsys, "mc-tail", "--rate", "2", "--C", "1", "--field", field,
                           "--replicates", "300", "--seed", "11", "--workers", workers,
                           *_MC_TAIL_OPS[op])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _MC_TAIL_PINS[op, field]


def test_mc_tail_help_states_the_cap_on_hashed_values(capsys):
    with pytest.raises(SystemExit):
        main(["mc-tail", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "replicates x support nodes may hash at most 2**40 innovations" in out
    assert 2**40 == verify_mod.MC_HASHED_VALUES


def test_verify_davydov_cli(capsys):
    code, out, _ = run(capsys, "verify-davydov", "--spaces", "5", "--seed", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 5
    assert all(r["holds"] for r in rows)


# sha256 of `verify-davydov --spaces 300 --seed 5` stdout as the check kernels
# read it before the spaces were drawn in slots, on the slot draws: 8 atoms
# and 64 outcomes (the defaults), and 12 atoms and 128 outcomes; alpha, lhs
# and rhs of every space, bit for bit
_DAVYDOV_SHA256 = {
    (): "6d9738f7f9f07e9b283efb983c10f02159520b58d40ca41b94062230d85ee6af",
    ("--max-atoms", "12", "--max-outcomes", "128"):
        "3ab19440fe5d2ec56a9c3a1460123800b6d73602b15cb5d6c5b3888afb259b5d",
}
_DAVYDOV = ["verify-davydov", "--spaces", "300", "--seed", "5"]
# spaces per block at the default 64 outcomes: outcome budgets of 64 (one
# space per block), 7 * 64 (7 spaces at 64 outcomes, 3 at 128) and 256 * 64,
# and the default budget, one block of all 300
_BUDGETS = [1, 7, 256, pytest.param(None, id="default")]


def _block_counts(monkeypatch):
    """The space count of every block verify-davydov draws, as it draws them."""
    counts = []

    def recorded(rng, count, *sizes, _draw=cli_mod.random_finite_spaces):
        counts.append(count)
        return _draw(rng, count, *sizes)

    monkeypatch.setattr(cli_mod, "random_finite_spaces", recorded)
    return counts


@pytest.mark.parametrize("block", _BUDGETS)
def test_verify_davydov_stdout_pinned_for_every_block_size(capsys, monkeypatch, block):
    budget = cli_mod.DAVYDOV_OUTCOMES if block is None else 64 * block
    monkeypatch.setattr(cli_mod, "DAVYDOV_OUTCOMES", budget)
    counts = _block_counts(monkeypatch)
    for shape, digest in _DAVYDOV_SHA256.items():
        counts.clear()
        code, out, err = run(capsys, *_DAVYDOV, *shape)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        step = min(300, max(1, budget // (128 if shape else 64)))
        assert counts == [step] * (300 // step) + [300 % step] * (300 % step > 0)
        # the CSV header comes once, before the lines of every block
        code, csv, _ = run(capsys, *_DAVYDOV, *shape, "--format", "csv")
        rows = [json.loads(line) for line in out.splitlines()]
        assert csv.splitlines() == [",".join(rows[0])] + [
            ",".join(str(v) for v in row.values()) for row in rows]


def test_verify_davydov_blocks_hold_a_fixed_count_of_outcome_slots(capsys, monkeypatch):
    counts = _block_counts(monkeypatch)
    for outcomes, want in (("64", [1024, 976]), ("4096", [16, 4]), ("2", [2000])):
        counts.clear()
        spaces = str(sum(want))
        code, out, _ = run(capsys, "verify-davydov", "--spaces", spaces, "--seed", "1",
                           "--max-outcomes", outcomes, "--max-atoms", "3")
        assert code == 0 and len(out.splitlines()) == sum(want)
        assert counts == want


@pytest.mark.parametrize("block", _BUDGETS)
def test_verify_davydov_names_the_first_space_over_the_atom_cap(capsys, monkeypatch, block):
    # the first space over the cap is space 18 at 64 outcomes and space 15 at
    # 128; space 25 and space 53, in the same block of 256 or more, are over it too
    if block is not None:
        monkeypatch.setattr(cli_mod, "DAVYDOV_OUTCOMES", 64 * block)
    for outcomes, counts in (("64", "3 and 13"), ("128", "6 and 13")):
        code, out, err = run(capsys, *_DAVYDOV, "--max-atoms", "13", "--max-outcomes", outcomes)
        assert (code, out) == (3, "")
        assert err == f"error: exact mixing coefficient capped at 12 atoms per partition, got {counts}\n"


_VALUES = {  # the kinds of value a column of the table subcommands may hold
    "float": st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308,
                                                      math.inf, -math.inf, math.nan])),
    "int": st.integers(-2**200, 2**200),
    "flag": st.one_of(st.booleans(), st.none()),
}
_VALUES["mixed"] = st.one_of(*_VALUES.values(), st.text(max_size=4))


@st.composite
def _table(draw):
    """Column names and rows whose columns each hold one kind of value."""
    name = st.one_of(st.text(max_size=6), st.sampled_from(["%s", "100%", 'a"b', "p,q"]))
    names = draw(st.lists(name, min_size=1, max_size=6, unique=True))
    kinds = [draw(st.sampled_from(sorted(_VALUES))) for _ in names]
    count = draw(st.integers(0, 12))
    columns = [draw(st.lists(_VALUES[kind], min_size=count, max_size=count)) for kind in kinds]
    return names, [list(row) for row in zip(*columns)]


@settings(max_examples=200, deadline=None, database=None)
@given(table=_table())
def test_rows_render_by_column_as_json_dumps_and_str_join_render_by_row(table):
    names, rows = table
    assert cli_mod._rows(names, rows, "json") == "".join(
        json.dumps(dict(zip(names, row))) + "\n" for row in rows)
    assert cli_mod._rows(names, rows, "csv") == "".join(
        ",".join(map(str, row)) + "\n" for row in [names, *rows])


def test_verify_davydov_prints_alpha_zero_as_positive_zero(capsys):
    # space 9 of this draw has alpha exactly 0 with a negative part of -0.0
    code, out, _ = run(capsys, "verify-davydov", "--spaces", "12", "--seed", "3",
                       "--max-atoms", "12", "--max-outcomes", "128")
    assert code == 0
    assert '"alpha": 0.0,' in out.splitlines()[9]
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_out_gets_the_bytes_of_stdout(tmp_path, capsys, fmt):
    # both stream one chunk of rows at a time; 16383 rows are four chunks
    args = ["simulate", "--rate", "2", "--region", "generations(14)", "--field",
            "m_dependent(1)", "--C", "1", "--seed", "3", "--format", fmt]
    code, out, _ = run(capsys, *args)
    path = tmp_path / f"dump.{fmt}"
    assert run(capsys, *args, "--out", str(path)) == (0, "", "")
    assert code == 0 and len(out.splitlines()) >= 16383
    assert path.read_bytes() == out.encode()


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
    # the whole-tree bound at the same depth is finite: its tilt, threshold
    # and P2**2 leave float range, but it takes them as logs
    for L in ("542", "1100"):
        code, out, _ = run(capsys, "concentration-bound", "--A", "2", "--L", L,
                           "--epsilon", "3", "--C", "1", "--sigma2", "0.3",
                           "--envelope", "zero")
        assert code == 0 and json.loads(out)["log_total"] < 0
    # C**2 above C = 1.34e154
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


def test_mc_tail_refuses_a_deep_strip_before_its_bound(capsys):
    # the strip bound would form 2**100000 exactly, then fail on a log factor
    code, out, err = run(capsys, "mc-tail", "--rate", "2", "--region", "strip(100000,3)",
                         "--field", "independent", "--C", "1", "--epsilons", "0.5",
                         "--replicates", "100")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "region holds at least 2**100002 nodes" in err


_DEEP = str(2**1024)
_BOUND_TAIL = ["--epsilon", "0.5", "--C", "1", "--sigma2", "0.3", "--envelope", "zero"]
_STRIP_BOUND = ["bernstein-bound", "--A", "2", "--P", "3", "--P2", "4", "--Q2", "4",
                "--beta", "0.003", "--epsilon", "50", "--C", "1", "--sigma2", "0",
                "--envelope", "zero", "--L"]


@pytest.mark.parametrize("argv, term", [
    (["concentration-bound", "--A", "2", "--L", _DEEP] + _BOUND_TAIL, "A**(L - P1)"),
    (["concentration-bound", "--A", "3", "--L", str(10**12)] + _BOUND_TAIL, "A**(L - P1)"),
    (_STRIP_BOUND + ["20000"], "block_count"),
    (_STRIP_BOUND + [_DEEP], "block_count"),
])
def test_astronomically_deep_bounds_exit_three_naming_the_term(argv, term):
    # decided from L*log2(A) before any A**L is formed; the child's timeout
    # fails the test if one ever is
    probe = f"import sys; from treebound.cli import main; sys.exit(main({argv!r}))"
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("error:") and term in done.stderr, done.stderr


def test_concentration_bound_past_float_range_of_L_raises_capacity_error():
    probe = """
from treebound import CapacityError, ConcentrationInput, MixingEnvelope, concentration_bound
try:
    concentration_bound(ConcentrationInput(A=2, L=2**1024, epsilon=0.5, C=1.0, sigma2=0.3,
                                           envelope=MixingEnvelope.zero()))
except CapacityError as exc:
    print(exc)
"""
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "A**(L - P1) or A**L may exceed 2**1048576\n"


@pytest.mark.parametrize("L", [542, 1000, 1024, 1100, 3000, 100000])
def test_concentration_bound_is_finite_past_float_range(L):
    # the depths where a float schedule left float range: each exits 0 with
    # finite values, and L = 10**5 in well under the child's timeout
    argv = ["concentration-bound", "--A", "2", "--L", str(L), "--epsilon", "3", "--C", "1",
            "--sigma2", "0.3333333333333333", "--envelope", "zero"]
    probe = f"import sys; from treebound.cli import main; sys.exit(main({argv!r}))"
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert time.perf_counter() - start < 2.0
    assert (done.returncode, done.stderr) == (0, "")
    row = json.loads(done.stdout)
    assert all(math.isfinite(v) for v in row.values())
    assert row["log_total"] < 0 and row["indicator_wedge"] == 0


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


@pytest.mark.parametrize("flag", ["--max-outcomes", "--max-atoms"])
@pytest.mark.parametrize("value", [10**15, 2**63, verify_mod.MAX_OUTCOMES + 1])
def test_verify_davydov_space_sizes_past_the_cap_exit_three_at_once(capsys, flag, value):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-davydov", "--spaces", "1", flag, str(value))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (f"error: random finite spaces capped at {verify_mod.MAX_OUTCOMES} outcomes "
                   f"and atoms per partition, got {flag[2:].replace('-', '_')} = {value}\n")


def test_verify_davydov_space_sizes_at_the_cap_run(capsys):
    cap = str(verify_mod.MAX_OUTCOMES)
    code, out, _ = run(capsys, "verify-davydov", "--spaces", "2", "--seed", "1",
                       "--max-outcomes", cap, "--max-atoms", "12")
    assert code == 0 and len(out.splitlines()) == 2
    code, _, err = run(capsys, "verify-davydov", "--spaces", "1", "--max-atoms", cap)
    assert code == 3 and "capped at 12 atoms" in err


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
# does (replicates, spaces, depths, workers) only take values that fail fast;
# the sizes of verify-davydov's spaces are capped, so they take every value.
# mc-tail's replicates also take 2**62 and 2**63, past its cap on hashed
# values: refused whatever the other flags.
_BIG = str(2**63)
_HUGE_REPLICATES = (str(2**62), _BIG)
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
        ("replicates", ("100", *_HUGE_REPLICATES), True), ("seed", (None, "5"), False),
        ("workers", (None, "1", "2"), True), ("eta", (None, "0.5"), False),
        ("D", (None, "1"), False), ("P2", (None, "2"), False), ("Q2", (None, "2"), False),
        ("beta", (None, "0.002"), False), ("format", (None, "json", "csv"), False)],
    "verify-davydov": [
        ("spaces", ("1", "3"), True), ("seed", (None, "3"), False), ("p", (None, "4"), False),
        ("q", (None, "4"), False), ("r", (None, "2"), False),
        ("max-outcomes", (None, "8"), False), ("max-atoms", (None, "4"), False),
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
    huge = "--replicates" in argv and argv[argv.index("--replicates") + 1] in _HUGE_REPLICATES
    assert main(argv) in ((1, 3) if huge else (0, 1, 2, 3))
    capsys.readouterr()


def test_binary_config_file_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bound.cfg"
    cfg.write_bytes(b"A = \xff\xfe\n")
    code, _, err = run(capsys, "bernstein-bound", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error:") and "not a text file" in err
