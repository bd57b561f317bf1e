"""The key = value configuration dialect shared by the CLI subcommands.

A config file holds one ``key = value`` assignment per line; blank lines
are skipped and ``#`` starts a comment.  Keys mirror the field names of the
input type the subcommand feeds; unknown and duplicate keys are rejected so
a parse is total or fails loudly.

Structured values use a small call-like grammar::

    envelope = zero | m_dependent(m) | super_exponential(scale) | table(v1,v2,...)
    field    = independent | m_dependent(m) | branching_ar(a)
    region   = strip(level,depth) | generations(count) | subtree(j,k,depth)

where ``super_exponential(scale)`` means the rate function ``g(n) =
scale * n`` (the config file cannot carry arbitrary callables; the library
API can).

Each subcommand declares its keys once, as a typed table ``{key: (parser,
required)}``.  :func:`merged_options` merges the file with the command-line
overrides, rejects unknown config keys by name, reports missing required
keys together and runs each value through its parser, so a malformed value
is a :class:`ValidationError` that names its key.  An optional key given
nowhere is left out of the result, and the library's own default applies.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Optional

from .bounds import MixingEnvelope
from .errors import ValidationError
from .fields import FieldSpec
from .tree import Generations, Region, Strip, Subtree

_CALL_RE = re.compile(r"^([a-z_]+)\s*(?:\(([^)]*)\))?$")


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a dict; rejects malformed lines and
    duplicate keys."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValidationError(f"config line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _split_call(text: str, what: str) -> tuple[str, list[str]]:
    match = _CALL_RE.match(text.strip())
    if not match:
        raise ValidationError(f"cannot parse {what} specification {text!r}")
    name, args = match.group(1), match.group(2)
    if args is None or not args.strip():
        return name, []
    return name, [a.strip() for a in args.split(",")]


def parse_envelope(text: str) -> MixingEnvelope:
    name, args = _split_call(text, "envelope")
    if name == "zero" and not args:
        return MixingEnvelope.zero()
    if name == "m_dependent" and len(args) == 1:
        return MixingEnvelope.m_dependent(int(args[0]))
    if name == "super_exponential" and len(args) == 1:
        scale = float(args[0])
        if not scale > 0:  # NaN fails too
            raise ValidationError(f"super_exponential scale must be > 0, got {scale}")
        return MixingEnvelope.super_exponential(lambda n, s=scale: s * n)
    if name == "table" and args:
        return MixingEnvelope.table([float(a) for a in args])
    raise ValidationError(f"unknown envelope specification {text!r}")


def parse_field(text: str, C: float, master_seed: int) -> FieldSpec:
    name, args = _split_call(text, "field")
    try:
        if name == "independent" and not args:
            return FieldSpec.independent(C=C, master_seed=master_seed)
        if name == "m_dependent" and len(args) == 1:
            return FieldSpec.m_dependent(int(args[0]), C=C, master_seed=master_seed)
        if name == "branching_ar" and len(args) == 1:
            return FieldSpec.branching_ar(float(args[0]), C=C, master_seed=master_seed)
    except ValueError as exc:
        raise ValidationError(f"bad field arguments in {text!r}: {exc}") from exc
    raise ValidationError(f"unknown field specification {text!r}")


def parse_region(text: str) -> Region:
    name, args = _split_call(text, "region")
    if name == "strip" and len(args) == 2:
        return Strip(level=int(args[0]), depth=int(args[1]))
    if name == "generations" and len(args) == 1:
        return Generations(count=int(args[0]))
    if name == "subtree" and len(args) == 3:
        return Subtree(j=int(args[0]), k=int(args[1]), depth=int(args[2]))
    raise ValidationError(f"unknown region specification {text!r}")


def parse_float_list(text: str) -> list[float]:
    values = [float(part.strip()) for part in text.split(",") if part.strip()]
    if not values:
        raise ValidationError(f"empty number list {text!r}")
    return values


def merged_options(
    config_text: Optional[str],
    overrides: dict[str, Optional[str]],
    table: dict[str, tuple[Callable[[str], Any], bool]],
) -> dict[str, Any]:
    """The parsed values of ``table``'s keys given in the config file or in
    ``overrides`` (which win), in table order."""
    merged = parse_kv_text(config_text) if config_text is not None else {}
    for key in merged:
        if key not in table:
            raise ValidationError(f"unknown config key {key!r}")
    merged.update((key, value) for key, value in overrides.items() if value is not None)
    missing = [key for key, (_, required) in table.items() if required and key not in merged]
    if missing:
        raise ValidationError("missing required keys: " + ", ".join(sorted(missing)))
    return {key: _parsed(key, parse, merged[key]) for key, (parse, _) in table.items()
            if key in merged}


def _parsed(key: str, parse: Callable[[str], Any], text: str) -> Any:
    try:
        return parse(text)
    except ValueError as exc:  # a ValidationError too: every message names its key
        raise ValidationError(f"bad value for {key}: {exc}") from exc
