"""Benchmark passes for one workload, each in a fork of a freshly imported
interpreter.

Imports ``treebound.cli`` from the checkout's ``src/``, builds the
workload's ops and prints a ready line.  Then, while the next pass still
fits in ``--seconds``, it forks a child that runs every op once in-process
through ``treebound.cli.main(argv)`` and prints the child's record as one
JSON line: per-op exit code, time and output digest, and the child's peak
RSS.  Forking gives every pass the state a new CLI process has after its
imports, without paying the import again, so no cache warmed by one pass
helps the next.  The first pass also checks every op's output; with
``--trace 1`` every second pass is traced and adds per-layer metrics.

With ``--seconds 0`` it exits after the ready line, which times set-up
alone.  Run by ``run.py``; by hand:
``python3 bench/worker.py --workload exact_checks --seed 1 --seconds 10``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

INNOVATION_BLOCK = (512, 12)  # replicates x generations(12) = 512 x 4095 values


def _run_op(cli, op) -> tuple[object, float, str]:
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.argv))
    except Exception as exc:  # an op that ends in a traceback is a failed op
        code = f"{type(exc).__name__}: {exc}"
    return code, perf_counter() - start, buf.getvalue()


def _innovation_ns(seed: int) -> float:
    """ns per value of ``field_values`` on the independent field, 512 x 4095 block."""
    from treebound.fields import FieldSpec, field_values
    from treebound.tree import Generations, region_nodes

    reps, gens = INNOVATION_BLOCK
    nodes = list(region_nodes(Generations(gens), workloads.RATE))
    spec = FieldSpec.independent(C=1.0, master_seed=workloads.derive_seed(seed, "innovation"))
    times = []
    for _ in range(5):
        start = perf_counter()
        field_values(spec, nodes, workloads.RATE, range(reps))
        times.append(perf_counter() - start)
    return statistics.median(times) / (reps * len(nodes)) * 1e9


def run_pass(cli, ops, seed: int, check: bool, traced: bool) -> dict:
    """Run every op once; the record of one pass."""
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    results = []
    start = perf_counter()
    for index, op in enumerate(ops):
        if tracer is None:
            results.append(_run_op(cli, op))
            continue
        tracer.op = index
        token = tracer.enter("cli.main")
        results.append(_run_op(cli, op))
        tracer.exit(token)
    wall_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    record = {
        "traced": traced,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": [
            {"name": op.name, "exit_code": code, "seconds": seconds,
             "output_bytes": len(text.encode()),
             "digest": hashlib.sha256(text.encode()).hexdigest()}
            for op, (code, seconds, text) in zip(ops, results)
        ],
    }
    if check:
        import checks

        texts = {op.name: text for op, (_, _, text) in zip(ops, results)}
        for op, (code, _, text), out in zip(ops, results, record["ops"]):
            problems = checks.check_op(op, code, text)
            if op.same_as is not None and text != texts[op.same_as]:
                problems.append(f"output differs from {op.same_as}")
            out["problems"] = problems
    if tracer is not None:
        import spans

        layers = spans.layer_metrics(tracer, ops)
        layers["cli.output_bytes"] = sum(out["output_bytes"] for out in record["ops"])
        if any(op.kind in ("mc-tail", "simulate") for op in ops):
            try:
                layers["fields.innovation_ns"] = _innovation_ns(seed)
            except (ImportError, AttributeError, TypeError):
                tracer.absent.append("fields.innovation_ns")
        record.update(layers=layers, absent=tracer.absent,
                      spans=[s.as_dict() for s in tracer.spans])
    return record


def forked(fn, *args) -> dict:
    """``fn(*args)`` in a forked child; returns the record it sends back."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(fn(*args)))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"benchmark pass failed with wait status {status}")
    return json.loads(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = perf_counter()
    import treebound.cli as cli
    import_s = perf_counter() - start
    ops = workloads.build(args.workload, args.seed)
    import numpy
    import scipy

    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__}
    print(json.dumps({"import_s": import_s, "versions": versions}), flush=True)
    if args.seconds <= 0:
        return 0

    min_passes = 2 if args.trace else 1
    start = perf_counter()
    durations = []
    while True:
        traced = bool(args.trace) and len(durations) % 2 == 1
        gc.collect()
        pass_start = perf_counter()
        record = forked(run_pass, cli, ops, args.seed, not durations, traced)
        durations.append(perf_counter() - pass_start)
        print(json.dumps(record), flush=True)
        elapsed = perf_counter() - start
        if len(durations) >= min_passes and elapsed + statistics.median(durations) > args.seconds:
            return 0


if __name__ == "__main__":
    sys.exit(main())
