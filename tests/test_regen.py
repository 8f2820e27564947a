"""The reference-diff harness ``tests/regen.py`` and its independent estimator."""

import math
import os
from pathlib import Path

import pytest

from cvteleport.measurement import CircleTailored
from oracles import exact_cells
from regen import fsum_estimate, moved_cells, run_recorded
from test_package import fresh_python
from test_reference import ALPHABET_S, _columns


def test_loading_perfbench_writes_no_bytecode(tmp_path):
    # regen and the reference tests execute perfbench/run.py from its source:
    # an import would write its bytecode under perfbench/, which they promise
    # to leave as it is.  With bytecode writing on and every .pyc sent under
    # tmp_path, the imports write the tests' own bytecode and none of perfbench's
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path)
    fresh_python("import match_reference, regen", cwd=Path(__file__).parent, env=env)
    assert list(tmp_path.glob("**/tests/regen.*.pyc"))
    assert list(tmp_path.glob("**/perfbench/*.pyc")) == []


def test_fsum_estimate_of_the_pinned_circle_stderr(tmp_path):
    # the full reference's circle at lam = 0.999 holds the one-pass
    # Sum f^2 - n mean^2 stderr, which cancels in its 8th digit; two-pass
    # fsum sums over the same samples keep the mean and give the exact value
    estimates = run_recorded("full", "circle-vs-line", tmp_path)
    cells = _columns("full", "circle-vs-line")
    assert cells["lambda"][50] == "0.999"
    assert cells["f_circle_stderr"][50] == "1.08837674e-07"
    mean, stderr = fsum_estimate(*estimates[CircleTailored, 50])
    assert format(mean, ".9g") == cells["f_circle"][50]
    assert format(stderr, ".9g") == "1.08837662e-07"


def test_moved_cells_names_each_cell(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("lambda,f\n0,0.5\n0.5,0.75\n")
    new.write_text("lambda,f,g\n0,0.5,1\n0.5,0.76,2\n1,1,3\n")
    assert moved_cells(old, old) == []
    assert moved_cells(old, new) == [
        (0, "g", "-", "1"),
        (1, "f", "0.75", "0.76"),
        (1, "g", "-", "2"),
        (2, "lambda", "-", "1"),
        (2, "f", "-", "1"),
        (2, "g", "-", "3"),
    ]


def test_exact_cells_of_fig3_without_squeezing():
    # at lam = 0 nothing is tailored: eta* = g2* = 0, and the full tailoring
    # gives 2/sqrt(6) against the standard 1/2 and the displacement's sqrt(1/2)
    assert exact_cells("fig3", 0.0, ALPHABET_S) == pytest.approx({
        "f_full": math.sqrt(2.0 / 3.0), "eta_star": 0.0, "g2_star": 0.0,
        "f_standard": 0.5, "f_disp_only": math.sqrt(0.5),
    }, rel=1e-15, abs=0.0)
