"""Output checks for every benchmark op.

Each ``check_*`` function takes an :class:`~workloads.Op` and the text the
op printed and returns a list of problems; an empty list means the output
is correct.  The checks recompute what they can independently of the
library: a pure-Python SplitMix64 innovation oracle for sampled fields and
a brute-force sup over all event pairs for small finite spaces.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

from workloads import C, RATE, Op, region_generations, region_node_count

ORACLE_NODES = 1000
BRUTE_FORCE_ATOMS = 6

# log_bound does not depend on the seed: it is pinned per (region, field)
# and epsilon at the commit that defined this benchmark.
PINNED_LOG_BOUND = {
    ("strip(5,6)", "branching_ar(0.8)"): (
        9.182581704622388, 9.182277976221798, 9.18106098773854, 9.176196825800817),
    ("strip(6,4)", "branching_ar(0.8)"): (
        15.615223389525767, 15.613885704911407, 15.608539109643669, 15.587159242684411),
    ("strip(5,6)", "m_dependent(1)"): (
        0.6911737850434929, 0.6852606875089742, 0.6615692307352443, 0.5854203273219738),
}

PINNED_EMBEDDING = {
    "packed": {"dim": 2, "depth": 14, "distortion_constant": 129.0, "constant_used": 1.0,
               "witness": {"k": 9, "v": [9, 1], "w": [9, 8]}, "refuted": True},
    "row": {"dim": 2, "depth": 14, "distortion_constant": 8192.0, "constant_used": 8192.0,
            "witness": None, "refuted": False},
}

# --- SplitMix64 innovation oracle ---------------------------------------

_MASK = (1 << 64) - 1
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_C_SEED, _C_REP = 0x9E3779B97F4A7C15, 0xA0761D6478BD642F
_C_GEN, _C_IDX = 0xE7037ED1A0B428DB, 0x8EBC6AF09C88C6E3


def _mix64(x: int) -> int:
    x = ((x ^ (x >> 30)) * _M1) & _MASK
    x = ((x ^ (x >> 27)) * _M2) & _MASK
    return x ^ (x >> 31)


def innovation(seed: int, replicate: int, j: int, k: int) -> float:
    """Uniform [-1, 1) innovation keyed on (seed, replicate, node (j, k))."""
    s = _mix64((seed & _MASK) ^ _C_SEED)
    r = _mix64(s ^ _mix64(replicate ^ _C_REP))
    n = _mix64(_mix64(j ^ _C_GEN) ^ _mix64(k ^ _C_IDX))
    h = _mix64(r ^ n)
    return 2.0 * ((h >> 11) * 2.0**-53) - 1.0


def _parent(j: int, k: int):
    return (j - 1, (k + RATE - 1) // RATE) if j > 0 else None


def _ball(j: int, k: int, m: int) -> set:
    seen, frontier = {(j, k)}, [(j, k)]
    for _ in range(m):
        nxt = []
        for v in frontier:
            base = RATE * (v[1] - 1)
            nbrs = [(v[0] + 1, base + t) for t in range(1, RATE + 1)]
            if _parent(*v) is not None:
                nbrs.append(_parent(*v))
            for w in nbrs:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def oracle_value(field: str, seed: int, replicate: int, j: int, k: int) -> float:
    """The field value at node (j, k), recomputed from its definition."""
    name, _, arg = field.rstrip(")").partition("(")
    if name == "independent":
        return C * innovation(seed, replicate, j, k)
    if name == "m_dependent":
        ball = _ball(j, k, int(arg))
        return C * sum(innovation(seed, replicate, *v) for v in sorted(ball)) / len(ball)
    a = float(arg)
    path = [(j, k)]
    while path[-1][0] > 0:
        path.append(_parent(*path[-1]))
    value = None
    for v in reversed(path):
        u = innovation(seed, replicate, *v)
        value = C * u if value is None else a * value + (1.0 - abs(a)) * C * u
    return value


def oracle_sample(op: Op) -> list[int]:
    """Row indices of the nodes an op's values are checked at."""
    n = region_node_count(op.params["region"])
    return sorted(random.Random(op.params["seed"]).sample(range(n), min(ORACLE_NODES, n)))


# --- parsing -------------------------------------------------------------

def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _json_lines(text: str) -> list[dict]:
    return [json.loads(line, parse_constant=_reject_constant) for line in text.splitlines()]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# --- checks ----------------------------------------------------------------

def check_mc_tail(op: Op, text: str) -> list[str]:
    try:
        rows = _json_lines(text)
    except ValueError as exc:
        return [f"output is not JSON lines: {exc}"]
    p = op.params
    eps = p["epsilons"]
    if len(rows) != len(eps):
        return [f"{len(rows)} rows for {len(eps)} epsilons"]
    certified = not p["field"].startswith("branching_ar")
    pinned = PINNED_LOG_BOUND.get((p["region"], p["field"]))
    problems = []
    for i, (row, e) in enumerate(zip(rows, eps)):
        for key in ("epsilon", "n_exceed", "p_hat", "ci_upper_99", "log_bound"):
            if not _finite(row.get(key)):
                problems.append(f"row {i}: {key} is not a finite number")
        if problems:
            return problems
        n, k = row["n_replicates"], row["n_exceed"]
        if row["epsilon"] != e or n != p["replicates"]:
            problems.append(f"row {i}: epsilon/replicates do not echo the input")
        if not 0 <= k <= n or row["p_hat"] != k / n:
            problems.append(f"row {i}: p_hat {row['p_hat']!r} != n_exceed/n = {k}/{n}")
        if not row["p_hat"] <= row["ci_upper_99"] <= 1.0:
            problems.append(f"row {i}: need p_hat <= ci_upper_99 <= 1")
        if i and k > rows[i - 1]["n_exceed"]:
            problems.append(f"row {i}: n_exceed grows with epsilon")
        if row["certified"] is not certified:
            problems.append(f"row {i}: certified is {row['certified']}, envelope says {certified}")
        if row["violated"] is not (False if certified else None):
            problems.append(f"row {i}: violated is {row['violated']}")
        if pinned is not None and row["log_bound"] > pinned[i] + 1e-9 * abs(pinned[i]):
            problems.append(f"row {i}: log_bound {row['log_bound']!r} above pinned {pinned[i]!r}")
    return problems


def check_simulate(op: Op, text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "j,k,value":
        return ["missing CSV header j,k,value"]
    p = op.params
    n = region_node_count(p["region"])
    if len(lines) - 1 != n:
        return [f"{len(lines) - 1} rows, expected {n}"]
    nodes = ((j, k) for j in region_generations(p["region"]) for k in range(1, RATE**j + 1))
    values = []
    for row, (node, line) in enumerate(zip(nodes, lines[1:])):
        j, k, value = line.split(",")
        if (int(j), int(k)) != node:
            return [f"row {row} is node ({j},{k}), expected {node}"]
        x = float(value)
        if not math.isfinite(x) or abs(x) > C:
            return [f"row {row}: value {value} is not finite within [-C, C]"]
        values.append((node, x))
    problems = []
    for row in oracle_sample(op):
        node, x = values[row]
        want = oracle_value(p["field"], p["seed"], p["replicate"], *node)
        if abs(x - want) > 1e-12:
            problems.append(f"node {node}: value {x!r}, oracle {want!r}")
    return problems


def brute_force_alpha(space) -> float:
    """max |P(A&B) - P(A)P(B)| over every union A of G-atoms and B of H-atoms."""
    g, h = len(space.atoms_g), len(space.atoms_h)
    g_of = {i: gi for gi, atom in enumerate(space.atoms_g) for i in atom}
    joint = np.zeros((g, h))
    for hj, atom in enumerate(space.atoms_h):
        for i in atom:
            joint[g_of[i], hj] += space.probs[i]
    bits_a = (np.arange(1 << g)[:, None] >> np.arange(g)) & 1
    bits_b = (np.arange(1 << h)[:, None] >> np.arange(h)) & 1
    p_ab = bits_a @ joint @ bits_b.T
    p_a, p_b = bits_a @ joint.sum(axis=1), bits_b @ joint.sum(axis=0)
    return float(np.abs(p_ab - np.outer(p_a, p_b)).max())


def check_davydov(op: Op, text: str) -> list[str]:
    from treebound.verify import random_finite_space

    try:
        rows = _json_lines(text)
    except ValueError as exc:
        return [f"output is not JSON lines: {exc}"]
    p = op.params
    if len(rows) != p["spaces"]:
        return [f"{len(rows)} rows for {p['spaces']} spaces"]
    rng = np.random.default_rng(p["seed"])
    problems = []
    for i, row in enumerate(rows):
        space = random_finite_space(rng, p["max_outcomes"], p["max_atoms"])
        if not all(_finite(row.get(key)) for key in ("alpha", "lhs", "rhs")):
            problems.append(f"space {i}: alpha/lhs/rhs not finite")
            continue
        if row["space_index"] != i or row["n_outcomes"] != len(space.probs):
            problems.append(f"space {i}: index or outcome count differs from the regenerated space")
        if row["holds"] is not True:
            problems.append(f"space {i}: inequality does not hold")
        if not 0.0 <= row["alpha"] <= 0.25:
            problems.append(f"space {i}: alpha {row['alpha']!r} outside [0, 1/4]")
        if max(len(space.atoms_g), len(space.atoms_h)) <= BRUTE_FORCE_ATOMS:
            want = brute_force_alpha(space)
            if abs(row["alpha"] - want) > 1e-12:
                problems.append(f"space {i}: alpha {row['alpha']!r}, brute force {want!r}")
    return problems


def check_embedding(op: Op, text: str) -> list[str]:
    try:
        rows = _json_lines(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    want = PINNED_EMBEDDING[op.params["layout"]]
    if rows != [want]:
        return [f"payload {rows!r} differs from pinned {want!r}"]
    return []


CHECKS = {
    "mc-tail": check_mc_tail,
    "simulate": check_simulate,
    "verify-davydov": check_davydov,
    "embedding-check": check_embedding,
}


def check_op(op: Op, exit_code, text: str) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    return CHECKS[op.kind](op, text)
