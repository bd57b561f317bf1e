"""treebound benchmark: time to a checked answer for four CLI workloads.

    python3 bench/run.py --workload mc_generations --seed 1 --seconds 30 --trace 0

A run first starts two set-up probes, fresh interpreters that import
``treebound.cli`` from ``src/``, build the workload's inputs and exit.  Then
``worker.py`` runs passes over the workload's ops, each pass in a fork of a
freshly imported interpreter, while the next one still fits in
``--seconds``.  The first pass also checks every op's output; later passes
must reproduce its output byte for byte.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (one pass over the
ops, mean over passes), ``setup_s`` (interpreter start, import and input
build until ready, median over the probes and the worker) and
``peak_rss_mb`` (peak RSS of a pass, median over passes).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
``spans.LAYER_UNITS``.  The last line of
standard output is the JSON result; ``--out DIR`` also writes the full
record (manifest, samples, per-pass details, spans) to ``DIR``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads
from spans import LAYER_UNITS
from stats import quartiles

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
DEADLINE_S = 170.0
SETUP_PROBES = 2  # set-up only workers; the measuring worker is one more sample
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# One BLAS thread: with --workers 2 the benchmark uses at most 2 threads.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def git_commit(root: Path):
    """HEAD's commit id read from ``.git``, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker(args, seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    """Start worker.py and read its ready line and pass records.

    Returns the ready record, with ``setup_s`` (start until ready), and the
    pass records.  The worker and its forked passes run in their own session,
    so the deadline kills every process of the run.
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{seconds:.3f}", "--trace", str(args.trace)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=dict(os.environ, **WORKER_ENV), start_new_session=True)

    def kill():
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(max(deadline - start, 0.0), kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or not ready:
        raise BenchError(f"worker exited with code {code}: {' '.join(cmd)}")
    return dict(json.loads(ready), setup_s=setup_s), [json.loads(line) for line in lines]


def run_passes(args) -> tuple[list[dict], list[dict]]:
    """(ready records of every started worker, pass records)."""
    start = perf_counter()
    deadline = start + DEADLINE_S
    readies = [_worker(args, 0.0, deadline)[0] for _ in range(SETUP_PROBES)]
    ready, passes = _worker(args, args.seconds - (perf_counter() - start), deadline)
    if not passes:
        raise BenchError("worker ran no pass")
    return readies + [ready], passes


def failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): every op of every pass is one attempt."""
    reference = passes[0]["ops"]
    attempted, failed, messages = 0, 0, []
    for index, record in enumerate(passes):
        for ref, out in zip(reference, record["ops"]):
            attempted += 1
            problems = list(ref["problems"])
            if out["exit_code"] != 0:
                problems.append(f"exit code {out['exit_code']}")
            if out["digest"] != ref["digest"]:
                problems.append("output differs from the checked pass")
            if problems:
                failed += 1
                messages.append(f"pass {index} {out['name']}: {'; '.join(problems[:3])}")
    return attempted, failed, messages


def end_to_end(readies: list[dict], passes: list[dict]) -> tuple[dict, dict]:
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": [r["setup_s"] for r in readies],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    # On a shared host the CPU can run in a fast or a slow state for seconds
    # at a time.  Pass times are then bimodal and their median jumps between
    # the modes from run to run; the mean moves in proportion to the time
    # spent in each state and spreads less across runs.
    metrics["wall_s"] = statistics.fmean(samples["wall_s"])
    return metrics, samples


def per_layer(readies: list[dict], passes: list[dict], ops) -> tuple[dict, list[str]]:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # median_low keeps each value a measured one, and counts whole numbers
    metrics = {
        name: statistics.median_low(p["layers"].get(name, 0) for p in traced)
        for name in LAYER_UNITS
    }
    metrics["cli.import_s"] = statistics.median(r["import_s"] for r in readies)
    metrics["trace.overhead_s"] = (statistics.fmean(p["wall_s"] for p in traced)
                                   - statistics.fmean(p["wall_s"] for p in plain))
    metrics["verify.worker_speedup"] = 0.0
    names = [op.name for op in ops]
    for i, op in enumerate(ops):
        if op.same_as is not None:  # the --workers 1 twin of a --workers 2 op
            j = names.index(op.same_as)
            single = statistics.median(p["ops"][i]["seconds"] for p in plain)
            multi = statistics.median(p["ops"][j]["seconds"] for p in plain)
            metrics["verify.worker_speedup"] = single / multi
    absent = sorted({name for p in traced for name in p["absent"]})
    return metrics, absent


def manifest(args, ops, readies, passes) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "setup_samples": len(readies),
        "nproc": os.cpu_count(),
        "versions": readies[-1]["versions"],
        "commit": git_commit(ROOT),
        "worker_env": WORKER_ENV,
        "ops": [{"name": op.name, "argv": list(op.argv), "size": op.size} for op in ops],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for the full run record")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "treebound" / "cli.py").is_file():
        print(f"error: no treebound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    try:
        readies, passes = run_passes(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, messages = failures(passes)
    info = manifest(args, ops, readies, passes)
    if args.trace:
        values, absent = per_layer(readies, passes, ops)
        units, samples = LAYER_UNITS, None
        info["absent"] = absent
    else:
        values, samples = end_to_end(readies, passes)
        units = END_TO_END_UNITS

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  trace {args.trace}")
    for name, value in values.items():
        detail = ""
        if samples is not None:
            q1, median, q3 = quartiles(samples[name])
            detail = f"  (median {median:.4g}, q1 {q1:.4g}, q3 {q3:.4g}, n={len(samples[name])})"
        print(f"  {name:28s} {value:14.6g} {units[name]}{detail}")
    share = failed / attempted
    print(f"  {'fail_share':28s} {share:14.6g} share  ({failed} of {attempted} ops failed)")
    for message in messages:
        print(f"  FAILED {message}")
    print(json.dumps({"manifest": info}))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(dict(result, manifest=info, samples=samples,
                                        readies=readies, passes=passes)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
