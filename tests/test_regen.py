"""The reference-diff harness ``tests/regen.py`` and its independent estimator."""

from cvteleport.measurement import CircleTailored
from regen import fsum_estimate, moved_cells, run_recorded
from test_reference import _columns


def test_fsum_estimate_of_the_pinned_circle_stderr(tmp_path):
    # the full reference's circle at lam = 0.999 holds the one-pass
    # Sum f^2 - n mean^2 stderr, which cancels in its 8th digit; two-pass
    # fsum sums over the same samples keep the mean and give the exact value
    estimates = run_recorded("full", "circle-vs-line", tmp_path / "out.csv")
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
