"""The benchmark's workloads: fixed lists of ``treebound`` CLI operations.

Each workload is a list of :class:`Op`.  Every op carries the argv passed to
``treebound.cli.main``, the parsed inputs its output check needs, and its
input size for the run manifest.  Op seeds are derived from the workload
seed, so the same workload seed always gives the same argv lists.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

RATE = 2
C = 1


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload."""

    name: str
    kind: str  # the CLI subcommand
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)
    same_as: Optional[str] = None  # op whose output must be byte-identical
    size: str = ""


def derive_seed(seed: int, key: str) -> int:
    """A 32-bit op seed that depends only on the workload seed and ``key``."""
    digest = hashlib.sha256(f"{seed}/{key}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def region_generations(region: str) -> range:
    """Generations of a ``generations(n)`` or ``strip(L,P)`` region."""
    name, args = region.rstrip(")").split("(")
    nums = [int(a) for a in args.split(",")]
    if name == "generations":
        return range(nums[0])
    level, depth = nums
    return range(level, level + depth)


def region_node_count(region: str) -> int:
    return sum(RATE**j for j in region_generations(region))


def _mc_tail(region, fld, replicates, epsilons, workers, seed, same_as=None) -> Op:
    op_seed = derive_seed(seed, f"mc-tail/{region}/{fld}")
    argv = (
        "mc-tail", "--rate", str(RATE), "--C", str(C), "--region", region,
        "--field", fld, "--replicates", str(replicates), "--epsilons",
        ",".join(str(e) for e in epsilons), "--workers", str(workers),
        "--seed", str(op_seed),
    )
    return Op(
        name=f"mc-tail {region} {fld} w{workers}",
        kind="mc-tail",
        argv=argv,
        params={"region": region, "field": fld, "replicates": replicates,
                "epsilons": list(epsilons), "workers": workers, "seed": op_seed},
        same_as=same_as,
        size=f"{region_node_count(region)} nodes x {replicates} replicates",
    )


def _simulate(region, fld, seed) -> Op:
    op_seed = derive_seed(seed, f"simulate/{region}/{fld}")
    argv = (
        "simulate", "--rate", str(RATE), "--C", str(C), "--region", region,
        "--field", fld, "--seed", str(op_seed), "--format", "csv",
    )
    return Op(
        name=f"simulate {region} {fld}",
        kind="simulate",
        argv=argv,
        params={"region": region, "field": fld, "seed": op_seed, "replicate": 0},
        size=f"{region_node_count(region)} nodes x 1 replicate",
    )


def _davydov(spaces, max_atoms, max_outcomes, seed) -> Op:
    op_seed = derive_seed(seed, f"verify-davydov/{spaces}/{max_atoms}")
    argv = (
        "verify-davydov", "--spaces", str(spaces), "--seed", str(op_seed),
        "--max-atoms", str(max_atoms), "--max-outcomes", str(max_outcomes),
    )
    return Op(
        name=f"verify-davydov a{max_atoms}",
        kind="verify-davydov",
        argv=argv,
        params={"spaces": spaces, "max_atoms": max_atoms,
                "max_outcomes": max_outcomes, "seed": op_seed},
        size=f"{spaces} spaces",
    )


def _embedding(layout, depth, kmax, constant=None) -> Op:
    argv = (
        "embedding-check", "--rate", str(RATE), "--layout", layout, "--dim", "2",
        "--depth", str(depth), "--kmax", str(kmax),
    )
    if constant is not None:
        argv += ("--constant", str(constant))
    return Op(
        name=f"embedding-check {layout}",
        kind="embedding-check",
        argv=argv,
        params={"layout": layout, "depth": depth},
        size=f"{(RATE ** (depth + 1) - 1) // (RATE - 1)} map nodes",
    )


def _mc_generations(seed: int) -> list[Op]:
    """Field sampling dominates: hash, ball/closure build, chunked sums.

    Bounds evaluate one concentration bound per epsilon, so an optimizer
    change should not move this workload.  The ``--workers 1`` twin of the
    m_dependent op is the single-threaded baseline.
    """
    def op(fld, workers, same_as=None):
        return _mc_tail("generations(12)", fld, 4096, (0.01, 0.02, 0.05), workers, seed,
                        same_as)

    w2 = [op(fld, 2) for fld in ("independent", "m_dependent(1)", "branching_ar(0.8)")]
    return w2 + [op("m_dependent(1)", 1, same_as=w2[1].name)]


def _strip_optimize(seed: int) -> list[Op]:
    """No fixed (P2, Q2, beta): the optimizer re-runs variance_proxy for every
    grid candidate, so bounds and paircount dominate and sampling is small."""
    rest = (2000, (40, 80, 160, 320), 2, seed)
    return [
        _mc_tail("strip(5,6)", "branching_ar(0.8)", *rest),
        _mc_tail("strip(6,4)", "branching_ar(0.8)", *rest),
        _mc_tail("strip(5,6)", "m_dependent(1)", *rest),
    ]


def _simulate_dump(seed: int) -> list[Op]:
    """Per-node values of one replicate: tree enumeration, NodeId maps and CSV
    formatting.  A one-time per-region cost shows here, unamortized."""
    return [_simulate("generations(16)", fld, seed)
            for fld in ("independent", "m_dependent(1)", "branching_ar(0.8)")]


def _exact_checks(seed: int) -> list[Op]:
    """The only ops on verify's exact finite-space path and on embed; no
    sampling and no optimizer."""
    return [
        _davydov(2000, 8, 64, seed),
        _davydov(500, 12, 128, seed),
        _embedding("packed", 14, 14, constant=1),
        _embedding("row", 14, 14),
    ]


WORKLOADS = {
    "mc_generations": _mc_generations,
    "strip_optimize": _strip_optimize,
    "simulate_dump": _simulate_dump,
    "exact_checks": _exact_checks,
}


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](seed)
