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
from dataclasses import fields
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
from .errors import AmplitudeError, CapacityError, ValidationError, require
from .fields import field_to_csv, sample_field
from .paircount import count_pairs_closed
from .tree import GraphSpec, parse_edge_list
from .verify import (
    StripParams,
    TailEstimate,
    davydov_check,  # not called here: bench/spans.py times it by this name
    davydov_checks,
    mc_tail,
    random_finite_space,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VIOLATION = 2
EXIT_CAPACITY = 3

DAVYDOV_BLOCK = 256  # verify-davydov draws and checks this many spaces at a time

# The options of each config-driven subcommand: key -> (parser, required).
# Each key is a --key flag and a config key; an absent optional key is not
# passed on, so the library's default applies.
_BERNSTEIN = {
    "A": (int, True), "L": (int, True), "P": (int, True), "P2": (int, True),
    "Q2": (int, True), "beta": (float, True), "epsilon": (float, True),
    "C": (float, True), "sigma2": (float, True), "envelope": (parse_envelope, True),
}
_CONCENTRATION = {
    "A": (int, True), "L": (int, True), "epsilon": (float, True), "C": (float, True),
    "sigma2": (float, True), "envelope": (parse_envelope, True),
    "eta": (float, False), "D": (float, False),
}
_MC_TAIL = {
    "rate": (int, True), "region": (parse_region, True), "field": (str, True),
    "C": (float, True), "epsilons": (parse_float_list, True), "replicates": (int, True),
    "seed": (int, False), "workers": (int, False), "eta": (float, False),
    "D": (float, False), "P2": (int, False), "Q2": (int, False), "beta": (float, False),
}
_SIMULATE = {
    "rate": (int, True), "region": (parse_region, True), "field": (str, True),
    "C": (float, True), "seed": (int, False), "replicate": (int, False),
}


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
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not a text file: {exc}") from exc


def _rows(names: Sequence[str], rows, fmt: str) -> str:
    """JSON lines keyed by ``names``, or CSV with ``names`` as its header."""
    if fmt == "json":
        return "".join(json.dumps(dict(zip(names, row))) + "\n" for row in rows)
    return "".join(",".join(map(str, row)) + "\n" for row in [names, *rows])


def _options(args, table) -> dict:
    overrides = {key: getattr(args, key) for key in table}
    return merged_options(_read(args.config), overrides, table)


def _field(opts: dict):
    """The field spec of a keyed subcommand; consumes ``field``, ``C``, ``seed``."""
    return parse_field(opts.pop("field"), C=opts.pop("C"), master_seed=opts.pop("seed", 0))


def _cmd_count_pairs(args) -> int:
    A, P = args.rate, args.gens
    dists = range(1, 2 * P - 1) if args.dist is None else [args.dist]
    L = dists[-1] if dists else 1  # the largest distance asked for
    require((("--rate", A, 2), ("--gens", P, 1), ("--dist", L, 1)))
    if L <= 2 * P - 2:  # farther apart there are no pairs
        try:  # N <= P*(L + 2)*A**(P - 1 + L/2), term by term in count_pairs_sum
            digits = math.log10(P * (L + 2)) + math.log10(A) * (2 * P - 2 + L) / 2
        except OverflowError:  # an exponent past float range
            digits = math.inf
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and digits >= limit:
            raise CapacityError(f"pair counts at distance {L} may exceed {limit} digits")
    rows = [(A, P, L, count_pairs_closed(A, P, L)) for L in dists]
    _emit(_rows(("A", "P", "L", "N"), rows, args.format), args.out)
    return EXIT_OK


def _cmd_bernstein(args) -> int:
    inp = BernsteinInput(**_options(args, _BERNSTEIN))
    _emit(json.dumps(_bounds.bernstein_bound(inp).as_dict()) + "\n", args.out)
    return EXIT_OK


def _cmd_concentration(args) -> int:
    inp = ConcentrationInput(**_options(args, _CONCENTRATION))
    _emit(json.dumps(_bounds.concentration_bound(inp).as_dict()) + "\n", args.out)
    return EXIT_OK


def _cmd_mc_tail(args) -> int:
    opts = _options(args, _MC_TAIL)
    field = _field(opts)
    keys = [f.name for f in fields(StripParams)]
    params = {key: opts.pop(key) for key in keys if key in opts}
    if params and len(params) != len(keys):
        raise ValidationError(
            f"strip parameters require all of {', '.join(keys)}; got only {', '.join(params)}"
        )
    estimates = mc_tail(
        field, opts.pop("region"), opts.pop("rate"), opts.pop("epsilons"),
        opts.pop("replicates"), bound_params=StripParams(**params) if params else None,
        **opts,
    )
    names = [f.name for f in fields(TailEstimate)]
    rows = [[getattr(t, name) for name in names] for t in estimates]
    _emit(_rows(names, rows, args.format), args.out)
    return EXIT_VIOLATION if any(t.violated for t in estimates) else EXIT_OK


def _cmd_verify_davydov(args) -> int:
    require((("--seed", args.seed, 0), ("--spaces", args.spaces, 1)))
    rng = np.random.default_rng(args.seed)
    rows = []
    for start in range(0, args.spaces, DAVYDOV_BLOCK):
        block = [random_finite_space(rng, args.max_outcomes, args.max_atoms)
                 for _ in range(min(DAVYDOV_BLOCK, args.spaces - start))]
        results = davydov_checks(block, args.p, args.q, args.r)
        for index, (space, result) in enumerate(zip(block, results), start):
            rows.append((index, len(space.probs), args.p, args.q, args.r,
                         result.alpha, result.lhs, result.rhs, result.holds))
    names = ("space_index", "n_outcomes", "p", "q", "r", "alpha", "lhs", "rhs", "holds")
    _emit(_rows(names, rows, args.format), args.out)
    return EXIT_OK if all(row[-1] for row in rows) else EXIT_VIOLATION


def _cmd_embedding_check(args) -> int:
    if args.constant is not None:
        require(reals=(("--constant", args.constant, ">", 0),))
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
    if constant == math.inf:
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


def _cmd_simulate(args) -> int:
    opts = _options(args, _SIMULATE)
    sample = sample_field(_field(opts), opts["region"], opts["rate"], opts.get("replicate", 0))
    if args.format == "json":
        text = _rows(("j", "k", "value"), zip(*(array.tolist() for array in sample)), "json")
    else:
        text = field_to_csv(sample)
    _emit(text, args.out)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="treebound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, formats, table=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=formats, default=formats[0])
        if table is not None:
            p.add_argument("--config")
            for key in table:
                p.add_argument(f"--{key}")
        p.set_defaults(handler=handler)
        return p

    p = command("count-pairs", _cmd_count_pairs,
                "pair counts at fixed distance in a subtree", ("csv", "json"))
    p.add_argument("--rate", type=int, required=True)
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--dist", type=int)

    command("bernstein-bound", _cmd_bernstein, "evaluate the strip tail bound",
            ("json",), _BERNSTEIN)
    command("concentration-bound", _cmd_concentration, "evaluate the whole-tree tail bound",
            ("json",), _CONCENTRATION)
    command("mc-tail", _cmd_mc_tail, "Monte Carlo tail probabilities versus bounds",
            ("json", "csv"), _MC_TAIL)

    p = command("verify-davydov", _cmd_verify_davydov,
                "covariance inequality on random finite spaces", ("json", "csv"))
    p.add_argument("--spaces", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--q", type=float, default=4.0)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--max-outcomes", type=int, default=64)
    p.add_argument("--max-atoms", type=int, default=8)

    p = command("embedding-check", _cmd_embedding_check,
                "distortion and refutation for a lattice map", ("json",))
    p.add_argument("--rate", type=int, required=True)
    p.add_argument("--map", help="lattice map file with lines 'j k x1 ... xN'")
    p.add_argument("--layout", choices=("row", "packed"))
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--depth", type=int)
    p.add_argument("--edges", help="extra-edge file with lines 'j k j2 k2'")
    p.add_argument("--constant", type=float)
    p.add_argument("--kmax", type=int, required=True)

    command("simulate", _cmd_simulate, "sample a field on a region and dump it",
            ("csv", "json"), _SIMULATE)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (_CliError, ValidationError, OSError, CapacityError, AmplitudeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        capacity = isinstance(exc, (CapacityError, AmplitudeError))
        return EXIT_CAPACITY if capacity else EXIT_VALIDATION


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
