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
from functools import cache
from typing import Iterable, Optional, Sequence

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
from .errors import AmplitudeError, CapacityError, ValidationError, check_printable, require
from .fields import field_lines, sample_field
from .paircount import count_pairs_closed
from .tree import GraphSpec, parse_edge_list
from .verify import (
    MC_HASHED_VALUES,
    StripParams,
    TailEstimate,
    davydov_checks,
    mc_tail,
    random_finite_spaces,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VIOLATION = 2
EXIT_CAPACITY = 3

# verify-davydov draws and checks its spaces in blocks of this many outcome
# slots, --max-outcomes per space: 1024 spaces at the default 64 outcomes,
# one at the cap of 4096 outcomes
DAVYDOV_OUTCOMES = 1 << 16

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
    _write((text,), out)


def _write(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write each chunk as it comes, to ``out`` or to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _read(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not a text file: {exc}") from exc


_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # of float.__repr__
_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _column_text(values: Sequence, fmt: str) -> list[str]:
    """The text of each value of one column: ``str`` for CSV, and for JSON
    the text ``json.dumps`` gives, by one rule for the column when all its
    values are ``float``, all ``int`` or all ``bool`` or ``None``.  A column
    of one object repeated (an option echoed on every row) is rendered once."""
    if len(values) > 1 and all(value is values[0] for value in values):
        return _column_text(values[:1], fmt) * len(values)
    if fmt != "json":
        return list(map(str, values))
    kinds = set(map(type, values))
    if kinds == {float}:
        return [_JSON_WORDS.get(text, text) for text in map(float.__repr__, values)]
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds <= {bool, type(None)}:
        return list(map(_JSON_CONSTANTS.__getitem__, values))
    return list(map(json.dumps, values))


def _rows(names: Sequence[str], rows, fmt: str) -> str:
    """JSON lines keyed by ``names``, or CSV with ``names`` as its header."""
    return (",".join(map(str, names)) + "\n" if fmt == "csv" else "") + _lines(names, rows, fmt)


def _lines(names: Sequence[str], rows, fmt: str) -> str:
    """The lines of ``rows`` alone, rendered one column at a time: the bytes
    of a ``json.dumps`` of each row's dict keyed by ``names``, or of ``str``
    of its values joined by commas."""
    columns = [_column_text(column, fmt) for column in zip(*rows)]
    if fmt == "json":
        keys = (json.dumps(name).replace("%", "%%") for name in names)
        line = "{" + ", ".join(f"{key}: %s" for key in keys) + "}\n"
    else:
        line = ",".join(["%s"] * len(names)) + "\n"
    return "".join([line % row for row in zip(*columns)])


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
        # N <= P*(L + 2)*A**(P - 1 + L/2), term by term in count_pairs_sum
        check_printable(f"pair counts at distance {L}",
                        lambda: math.log10(P * (L + 2)) + math.log10(A) * (2 * P - 2 + L) / 2)
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
    # a --max-outcomes below 1 is refused by the first draw
    step = max(1, DAVYDOV_OUTCOMES // max(1, args.max_outcomes))
    names = ("space_index", "n_outcomes", "p", "q", "r", "alpha", "lhs", "rhs", "holds")
    chunks = [_rows(names, [], args.format)]  # the CSV header, then each block's lines
    holds = True
    for start in range(0, args.spaces, step):
        block = random_finite_spaces(rng, min(step, args.spaces - start),
                                     args.max_outcomes, args.max_atoms)
        results = davydov_checks(block, args.p, args.q, args.r)
        rows = [(index, size, args.p, args.q, args.r,
                 result.alpha, result.lhs, result.rhs, result.holds)
                for index, (size, result) in enumerate(zip(block.sizes.tolist(), results), start)]
        chunks.append(_lines(names, rows, args.format))
        holds = holds and all(result.holds for result in results)
    _write(chunks, args.out)
    return EXIT_OK if holds else EXIT_VIOLATION


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
    _write(field_lines(sample, args.format), args.out)
    return EXIT_OK


@cache  # built by the first main() call, then reused: a parse reads it, never changes it
def _build_parser() -> _Parser:
    parser = _Parser(prog="treebound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, formats, table=None, helps=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=formats, default=formats[0])
        if table is not None:
            p.add_argument("--config")
            for key in table:
                p.add_argument(f"--{key}", help=helps and helps.get(key))
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
    hashed = MC_HASHED_VALUES.bit_length() - 1
    command("mc-tail", _cmd_mc_tail, "Monte Carlo tail probabilities versus bounds",
            ("json", "csv"), _MC_TAIL,
            {"replicates": f"at least 100; replicates x support nodes may hash at most "
                           f"2**{hashed} innovations (about 42 minutes), exit 3 past it",
             **dict.fromkeys(("eta", "D"), "generations regions only"),
             **dict.fromkeys(("P2", "Q2", "beta"), "strip regions only, all three or none")})

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
