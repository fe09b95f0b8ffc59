"""Every script under demos/ runs to the end on the public API.

Each demo runs in process as __main__, with its stdout captured; any
exception fails its case. census_tour walks the (6,3) census, which the
criteria tests share through the enumeration cache.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [d.name for d in DEMOS] == ["census_tour.py", "partition_structure.py",
                                       "rank_witness.py", "unmixedness_criteria.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
