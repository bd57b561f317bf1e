"""Every narrative demo runs to completion and prints its story."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demo_directory_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


# the c2 table of demos/concentration_rate.py: the fitted slope of the
# whole-tree log bound against -eps * L / log L, per window of depths
_C2_TABLE = """\
  L window         points  c2      R^2
       8-16         9     0.0392  0.8029
      20-55         8     0.0422  0.9972
      60-180        7     0.0441  0.9998
     200-520        9     0.0451  1.0000
     600-3000       7     0.0455  1.0000
    4000-20000      5     0.0458  1.0000
   20000-100000     5     0.0459  1.0000
"""


def test_concentration_rate_demo_prints_the_c2_table(capsys):
    path = next(path for path in DEMOS if path.name == "concentration_rate.py")
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.endswith("\n\n" + _C2_TABLE)
