"""The row text kernel: repr and json bytes for any rows, and its tables."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treebound import field_lines, field_to_csv, rowtext


def _rows_ref(sample, fmt):
    rows = zip(*(array.tolist() for array in sample))
    if fmt == "json":
        return "".join(json.dumps({"j": j, "k": k, "value": v}) + "\n" for j, k, v in rows)
    return "j,k,value\n" + "".join(f"{j},{k},{v!r}\n" for j, k, v in rows)


_INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(rows=st.lists(st.tuples(_INT64, _INT64, st.floats(width=64)), max_size=40))
def test_rows_print_as_repr_and_json_print_them(rows):
    columns = list(zip(*rows)) or [(), (), ()]
    sample = tuple(np.array(c, dtype=d) for c, d in zip(columns, (np.int64, np.int64, float)))
    assert field_to_csv(sample) == _rows_ref(sample, "csv")
    assert "".join(field_lines(sample, "json")) == _rows_ref(sample, "json")


def test_g_table_brackets_every_power_of_ten():
    # (g - 1) 2**(r - 125) <= 10**-k < g 2**(r - 125), r = floor(-k log2 10) exactly
    empty = np.zeros((5, rowtext._K_MAX - rowtext._K_MIN + 1), dtype=np.uint64)
    table = rowtext._g_table(empty, rowtext._K_MIN, rowtext._K_MAX).tolist()
    for k in range(rowtext._K_MIN, rowtext._K_MAX + 1):
        g0l, g0h, g1l, g1h, g1 = (row[k - rowtext._K_MIN] for row in table)
        assert g1 == g1h << 32 | g1l and g0h < 2**31
        g = g1 << 63 | g0h << 32 | g0l
        r = (10**-k).bit_length() - 1 if k <= 0 else -(10**k).bit_length()
        unit = Fraction(2) ** (r - 125)
        assert 2**125 < g < 2**126
        assert (g - 1) * unit <= Fraction(10) ** -k < g * unit


def test_tables_are_built_at_first_use_not_at_import():
    probe = (
        "import treebound.cli, treebound.rowtext as r\n"
        "assert r._tables.cache_info().currsize == 0\n"
        "treebound.cli.main(['simulate', '--rate', '2', '--region', 'generations(2)',"
        " '--field', 'independent', '--C', '1'])\n"
        "assert r._tables.cache_info().currsize == 1\n"
    )
    src = str(Path(rowtext.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("j,k,value\n0,1,")
