"""The library tour of ``README.md`` runs against the current API."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)


def test_library_tour_runs():
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    # what its comments claim
    fam, dilated = ns["fam"], ns["dilated"]
    defect = ns["dynamics"].divisibility_defect(fam, 1.0, 0.5, 0.0)
    assert round(defect, 4) == 0.2385
    assert all(rep.passed for rep in dilated.verify(rng=np.random.default_rng(0)))
