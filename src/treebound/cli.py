"""Command-line front end: config ingestion, experiment orchestration,
structured JSON-lines / CSV output.

Exit codes: 0 success, 1 validation error, 2 a certified bound violation
was detected, 3 capacity (size cap) error or a sampled value outside its
amplitude bound.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import bounds as _bounds
from .bounds import BernsteinInput, ConcentrationInput
from .config import (
    merged_options,
    parse_envelope,
    parse_field,
    parse_float_list,
    parse_region,
)
from .embed import (
    breadth_first_row_layout,
    distortion_constant,
    packed_layout,
    parse_lattice_map,
    refutation_witness,
)
from .errors import AmplitudeError, CapacityError, ValidationError
from .fields import field_to_csv, sample_field
from .paircount import count_pairs_closed
from .tree import GraphSpec, parse_edge_list
from .verify import (
    StripParams,
    davydov_check,
    mc_tail,
    random_finite_space,
    tail_estimates_to_jsonl,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VIOLATION = 2
EXIT_CAPACITY = 3


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with the offending flag named
        raise _CliError(message)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    with open(path) as fh:
        return fh.read()


def _cmd_count_pairs(args) -> int:
    A, P = args.rate, args.gens
    if args.dist is not None:
        dists = [args.dist]
    else:
        dists = list(range(1, 2 * (P - 1) + 1))
    rows = [(A, P, L, count_pairs_closed(A, P, L)) for L in dists]
    if args.format == "json":
        text = "".join(
            json.dumps({"A": a, "P": p, "L": l, "N": n}) + "\n" for a, p, l, n in rows
        )
    else:
        lines = ["A,P,L,N"] + [f"{a},{p},{l},{n}" for a, p, l, n in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


_BERNSTEIN_KEYS = {
    "A": True, "L": True, "P": True, "P2": True, "Q2": True,
    "beta": True, "epsilon": True, "C": True, "sigma2": True, "envelope": True,
}


def _cmd_bernstein(args) -> int:
    if args.format == "csv":
        raise ValidationError("bernstein-bound emits JSON only")
    opts = merged_options(
        _read(args.config),
        {
            "A": args.A, "L": args.L, "P": args.P, "P2": args.P2, "Q2": args.Q2,
            "beta": args.beta, "epsilon": args.epsilon, "C": args.C,
            "sigma2": args.sigma2, "envelope": args.envelope,
        },
        _BERNSTEIN_KEYS,
    )
    inp = BernsteinInput(
        A=int(opts["A"]), L=int(opts["L"]), P=int(opts["P"]),
        P2=int(opts["P2"]), Q2=int(opts["Q2"]), beta=float(opts["beta"]),
        epsilon=float(opts["epsilon"]), C=float(opts["C"]),
        sigma2=float(opts["sigma2"]), envelope=parse_envelope(opts["envelope"]),
    )
    breakdown = _bounds.bernstein_bound(inp)
    _emit(json.dumps(breakdown.as_dict()) + "\n", args.out)
    return EXIT_OK


_CONCENTRATION_KEYS = {
    "A": True, "L": True, "epsilon": True, "C": True, "sigma2": True,
    "envelope": True, "eta": False, "D": False,
}


def _cmd_concentration(args) -> int:
    if args.format == "csv":
        raise ValidationError("concentration-bound emits JSON only")
    opts = merged_options(
        _read(args.config),
        {
            "A": args.A, "L": args.L, "epsilon": args.epsilon, "C": args.C,
            "sigma2": args.sigma2, "envelope": args.envelope,
            "eta": args.eta, "D": args.D,
        },
        _CONCENTRATION_KEYS,
    )
    inp = ConcentrationInput(
        A=int(opts["A"]), L=int(opts["L"]), epsilon=float(opts["epsilon"]),
        C=float(opts["C"]), sigma2=float(opts["sigma2"]),
        envelope=parse_envelope(opts["envelope"]),
        eta=float(opts.get("eta", "0.5")), D=float(opts.get("D", "1.0")),
    )
    breakdown = _bounds.concentration_bound(inp)
    _emit(json.dumps(breakdown.as_dict()) + "\n", args.out)
    return EXIT_OK


_MC_TAIL_KEYS = {
    "rate": True, "region": True, "field": True, "C": True,
    "epsilons": True, "replicates": True, "seed": False, "workers": False,
    "eta": False, "D": False, "P2": False, "Q2": False, "beta": False,
}


def _cmd_mc_tail(args) -> int:
    opts = merged_options(
        _read(args.config),
        {
            "rate": args.rate, "region": args.region, "field": args.field,
            "C": args.C, "epsilons": args.epsilons, "replicates": args.replicates,
            "seed": args.seed, "workers": args.workers, "eta": args.eta,
            "D": args.D, "P2": args.P2, "Q2": args.Q2, "beta": args.beta,
        },
        _MC_TAIL_KEYS,
    )
    A = int(opts["rate"])
    region = parse_region(opts["region"])
    field = parse_field(opts["field"], C=float(opts["C"]), master_seed=int(opts.get("seed", "0")))
    param_keys = [k for k in ("P2", "Q2", "beta") if k in opts]
    bound_params = None
    if param_keys:
        if len(param_keys) != 3:
            raise ValidationError(
                "strip parameters require all of P2, Q2, beta; got only "
                + ", ".join(param_keys)
            )
        bound_params = StripParams(
            P2=int(opts["P2"]), Q2=int(opts["Q2"]), beta=float(opts["beta"])
        )
    estimates = mc_tail(
        field,
        region,
        A,
        parse_float_list(opts["epsilons"]),
        int(opts["replicates"]),
        workers=int(opts.get("workers", "1")),
        bound_params=bound_params,
        eta=float(opts.get("eta", "0.5")),
        D=float(opts.get("D", "1.0")),
    )
    if args.format == "csv":
        header = "epsilon,n_replicates,n_exceed,p_hat,ci_upper_99,log_bound,violated,certified"
        rows = [
            f"{t.epsilon!r},{t.n_replicates},{t.n_exceed},{t.p_hat!r},"
            f"{t.ci_upper_99!r},{t.log_bound!r},{t.violated},{t.certified}"
            for t in estimates
        ]
        _emit("\n".join([header] + rows) + "\n", args.out)
    else:
        _emit(tail_estimates_to_jsonl(estimates), args.out)
    if any(t.violated for t in estimates if t.violated is not None):
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_verify_davydov(args) -> int:
    rng = np.random.default_rng(args.seed)
    any_violation = False
    lines = []
    for index in range(args.spaces):
        space = random_finite_space(rng, args.max_outcomes, args.max_atoms)
        result = davydov_check(space, args.p, args.q, args.r)
        any_violation |= not result.holds
        lines.append(
            json.dumps(
                {
                    "space_index": index,
                    "n_outcomes": len(space.probs),
                    "p": args.p,
                    "q": args.q,
                    "r": args.r,
                    "alpha": result.alpha,
                    "lhs": result.lhs,
                    "rhs": result.rhs,
                    "holds": result.holds,
                }
            )
        )
    _emit("".join(line + "\n" for line in lines), args.out)
    return EXIT_VIOLATION if any_violation else EXIT_OK


def _cmd_embedding_check(args) -> int:
    if args.format == "csv":
        raise ValidationError("embedding-check emits JSON only")
    if args.map is not None:
        lattice = parse_lattice_map(_read(args.map))
    elif args.layout is not None:
        if args.depth is None:
            raise ValidationError("--layout needs --depth")
        builder = breadth_first_row_layout if args.layout == "row" else packed_layout
        lattice = builder(args.rate, args.depth, args.dim)
    else:
        raise ValidationError("embedding-check needs --map or --layout")
    edges = parse_edge_list(_read(args.edges)) if args.edges else ()
    g = GraphSpec(args.rate, edges)
    distortion = distortion_constant(g, lattice)
    constant = args.constant if args.constant is not None else distortion
    if not math.isfinite(constant):
        raise ValidationError(
            "distortion constant is infinite (unmapped edge endpoint); pass --constant"
        )
    witness = refutation_witness(args.rate, lattice, constant, args.kmax)
    payload = {
        "dim": lattice.dim,
        "depth": lattice.depth,
        "distortion_constant": distortion,
        "constant_used": constant,
        "witness": None
        if witness is None
        else {"k": witness[0], "v": [witness[1].j, witness[1].k], "w": [witness[2].j, witness[2].k]},
        "refuted": witness is not None,
    }
    _emit(json.dumps(payload) + "\n", args.out)
    return EXIT_OK


_SIMULATE_KEYS = {
    "rate": True, "region": True, "field": True, "C": True,
    "seed": False, "replicate": False,
}


def _cmd_simulate(args) -> int:
    opts = merged_options(
        _read(args.config),
        {
            "rate": args.rate, "region": args.region, "field": args.field,
            "C": args.C, "seed": args.seed, "replicate": args.replicate,
        },
        _SIMULATE_KEYS,
    )
    A = int(opts["rate"])
    region = parse_region(opts["region"])
    field = parse_field(opts["field"], C=float(opts["C"]), master_seed=int(opts.get("seed", "0")))
    values = sample_field(field, region, A, int(opts.get("replicate", "0")))
    if args.format == "json":
        text = "".join(
            json.dumps({"j": v.j, "k": v.k, "value": values[v]}) + "\n"
            for v in sorted(values)
        )
    else:
        text = field_to_csv(values)
    _emit(text, args.out)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="treebound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="json"):
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default=fmt_default)

    p = sub.add_parser("count-pairs", help="pair counts at fixed distance in a subtree")
    p.add_argument("--rate", type=int, required=True)
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--dist", type=int)
    common(p, fmt_default="csv")
    p.set_defaults(handler=_cmd_count_pairs)

    p = sub.add_parser("bernstein-bound", help="evaluate the strip tail bound")
    p.add_argument("--config")
    for key in ("A", "L", "P", "P2", "Q2"):
        p.add_argument(f"--{key}")
    for key in ("beta", "epsilon", "C", "sigma2", "envelope"):
        p.add_argument(f"--{key}")
    common(p)
    p.set_defaults(handler=_cmd_bernstein)

    p = sub.add_parser("concentration-bound", help="evaluate the whole-tree tail bound")
    p.add_argument("--config")
    for key in ("A", "L", "epsilon", "C", "sigma2", "envelope", "eta", "D"):
        p.add_argument(f"--{key}")
    common(p)
    p.set_defaults(handler=_cmd_concentration)

    p = sub.add_parser("mc-tail", help="Monte Carlo tail probabilities versus bounds")
    p.add_argument("--config")
    for key in ("rate", "region", "field", "C", "epsilons", "replicates",
                "seed", "workers", "eta", "D", "P2", "Q2", "beta"):
        p.add_argument(f"--{key}")
    common(p)
    p.set_defaults(handler=_cmd_mc_tail)

    p = sub.add_parser("verify-davydov", help="covariance inequality on random finite spaces")
    p.add_argument("--spaces", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--q", type=float, default=4.0)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--max-outcomes", type=int, default=64)
    p.add_argument("--max-atoms", type=int, default=8)
    common(p)
    p.set_defaults(handler=_cmd_verify_davydov)

    p = sub.add_parser("embedding-check", help="distortion and refutation for a lattice map")
    p.add_argument("--rate", type=int, required=True)
    p.add_argument("--map", help="lattice map file with lines 'j k x1 ... xN'")
    p.add_argument("--layout", choices=("row", "packed"))
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--depth", type=int)
    p.add_argument("--edges", help="extra-edge file with lines 'j k j2 k2'")
    p.add_argument("--constant", type=float)
    p.add_argument("--kmax", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_embedding_check)

    p = sub.add_parser("simulate", help="sample a field on a region and dump it")
    p.add_argument("--config")
    for key in ("rate", "region", "field", "C", "seed", "replicate"):
        p.add_argument(f"--{key}")
    common(p, fmt_default="csv")
    p.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CapacityError, AmplitudeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
