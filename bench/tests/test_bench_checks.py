"""Self-test of the benchmark: its checks reject corrupted op outputs.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import numpy as np  # noqa: E402
import treebound.cli as cli  # noqa: E402
from treebound.verify import random_finite_space  # noqa: E402

SEED = 3


def _op(workload: str, name_part: str):
    return next(op for op in workloads.build(workload, SEED) if name_part in op.name)


def _run(op) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(op.argv)) == 0
    return buf.getvalue()


def test_mc_tail_check_catches_n_exceed_off_by_one():
    op = _op("mc_generations", "independent")
    text = _run(op)
    assert checks.check_op(op, 0, text) == []
    rows = [json.loads(line) for line in text.splitlines()]
    rows[1]["n_exceed"] += 1
    corrupted = "".join(json.dumps(row) + "\n" for row in rows)
    assert checks.check_op(op, 0, corrupted)


def test_simulate_check_catches_value_off_by_1e9():
    op = _op("simulate_dump", "independent")
    text = _run(op)
    assert checks.check_op(op, 0, text) == []
    lines = text.splitlines()
    row = checks.oracle_sample(op)[0] + 1  # +1 for the header
    j, k, value = lines[row].split(",")
    lines[row] = f"{j},{k},{float(value) + 1e-9!r}"
    assert checks.check_op(op, 0, "\n".join(lines) + "\n")


def test_embedding_check_catches_wrong_witness():
    op = _op("exact_checks", "packed")
    text = _run(op)
    assert checks.check_op(op, 0, text) == []
    payload = json.loads(text)
    payload["witness"]["w"] = [9, 7]
    assert checks.check_op(op, 0, json.dumps(payload) + "\n")


def test_davydov_check_catches_alpha_off_brute_force():
    op = _op("exact_checks", "a8")
    text = _run(op)
    assert checks.check_op(op, 0, text) == []
    rows = [json.loads(line) for line in text.splitlines()]
    rng = np.random.default_rng(op.params["seed"])
    spaces = [random_finite_space(rng, op.params["max_outcomes"], op.params["max_atoms"])
              for _ in rows]
    small = next(i for i, space in enumerate(spaces)
                 if max(len(space.atoms_g), len(space.atoms_h)) <= checks.BRUTE_FORCE_ATOMS)
    rows[small]["alpha"] += 1e-9
    corrupted = "".join(json.dumps(row) + "\n" for row in rows)
    assert checks.check_op(op, 0, corrupted)


def test_oracle_matches_every_field_kind():
    for op in workloads.build("simulate_dump", SEED):
        p = dict(op.params, region="generations(10)")
        small = workloads.Op(op.name, op.kind, op.argv[:6] + ("generations(10)",) + op.argv[7:], p)
        assert checks.check_op(small, 0, _run(small)) == [], op.name


def test_failed_exit_code_is_a_failure():
    op = _op("exact_checks", "row")
    assert checks.check_op(op, 1, _run(op))


def test_tracer_records_layers_and_restores_functions():
    ops = [_op("exact_checks", "packed")]
    original = cli.packed_layout
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        token = tracer.enter("cli.main")
        _run(ops[0])
        tracer.exit(token)
    finally:
        tracer.uninstall()
    assert cli.packed_layout is original
    assert tracer.absent == []
    layers = spans.layer_metrics(tracer, ops)
    assert layers["embed.map_nodes"] == 2**15 - 1
    assert layers["embed.tree_distance_calls"] > 0
    assert 0 < layers["cli.self_s"] < tracer.self_time("cli.main") + layers["embed.layout_s"]
    layout = next(s for s in tracer.spans if s.name == "embed.layout")
    main = next(s for s in tracer.spans if s.name == "cli.main")
    assert layout.parent == main.id and layout.op == 0


def test_benchmark_json_lists_every_layer_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == list(spans.LAYER_UNITS)
    assert [m["unit"] for m in doc["per_layer"]] == list(spans.LAYER_UNITS.values())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
