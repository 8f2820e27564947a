"""The benchmark's reference CSVs certify themselves.

Each closed-form cell under ``perfbench/reference/{full,smoke}`` is checked
against its formula, and each Monte Carlo cell against the exact moments of
the one-shot fidelity (``tests/oracles.py``), so a reference regenerated
with a wrong seed, size or formula fails here.  Each runner must also
rewrite its smoke and full references byte for byte.  The files are only read.
The bounds are fixed; a regeneration must pass them unchanged.
"""

import ast
import csv
import math
from pathlib import Path

import pytest

from cvteleport.cli import main
from cvteleport.experiments import default_lambda_grid
from oracles import line_circle_central_moments

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCES = ["full", "smoke"]

# A Monte Carlo mean lies within PULL_BOUND standard errors of the exact
# mean, and a standard error within PULL_BOUND of its own delta-method
# standard deviations of the exact one (worst at the references' seeds:
# 2.99 and 2.35 for full, 2.04 and 1.52 for smoke).
PULL_BOUND = 4.0


def _run_constant(name):
    """A constant of ``perfbench/run.py`` read from its source: ``CONFIGS``,
    the settings each reference was made with, or ``DEFAULT_SEED``."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/run.py defines no {name}")


def _columns(reference, command):
    """Each column of a reference CSV by name, as the text of its cells."""
    with open(PERFBENCH / "reference" / reference / f"{command}.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _ninth_digit(x):
    """One unit in the 9th significant digit of ``x``."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 8)


@pytest.mark.parametrize("reference", REFERENCES)
def test_closed_form_columns(reference):
    def standard(lam):
        return (1.0 + lam) / 2.0

    def displacement_only(lam):
        return math.sqrt((1.0 + lam) / 2.0)

    off = []
    for command, column, exact in [
        ("fig1", "f_standard", standard),
        ("fig3", "f_standard", standard),
        ("fig3", "f_disp_only", displacement_only),
    ]:
        cells = _columns(reference, command)
        for lam, text in zip(cells["lambda"], cells[column]):
            value = exact(float(lam))
            if abs(float(text) - value) > _ninth_digit(value):
                off.append(f"{command} {column} at lam={lam}: {text} != {value!r}")
    assert off == []


@pytest.mark.parametrize("reference", REFERENCES)
def test_monte_carlo_columns(reference):
    config = _run_constant("CONFIGS")[reference]
    n, amp = config["samples"], float(config["alpha"])
    cells = _columns(reference, "circle-vs-line")
    off = []
    for i, lam in enumerate(cells["lambda"]):
        moments = line_circle_central_moments(amp, float(lam))
        for column, (mu, mu2, mu4) in zip(["f_line", "f_circle"], moments):
            mean, stderr = float(cells[column][i]), float(cells[f"{column}_stderr"][i])
            exact_stderr = math.sqrt(mu2 / n)
            # delta method: sd(s^2) = sqrt((mu4 - mu2^2)/n), so sd(s) is that
            # over 2 sqrt(mu2), and the standard error is s / sqrt(n)
            stderr_sd = math.sqrt((mu4 - mu2 * mu2) / n) / (2.0 * math.sqrt(mu2 * n))
            pull = (mean - mu) / exact_stderr
            z = (stderr - exact_stderr) / stderr_sd
            if abs(pull) > PULL_BOUND or abs(z) > PULL_BOUND:
                off.append(f"{column} at lam={lam}: mean pull {pull:.2f}, stderr z {z:.2f}")
    assert off == []


@pytest.mark.parametrize("reference", REFERENCES)
def test_fig1_monte_carlo_column_is_the_line(reference):
    fig1 = _columns(reference, "fig1")
    circle_vs_line = _columns(reference, "circle-vs-line")
    assert fig1["lambda"] == circle_vs_line["lambda"]
    assert fig1["f_tailored_disp_mc"] == circle_vs_line["f_line"]
    assert fig1["f_tailored_disp_mc_stderr"] == circle_vs_line["f_line_stderr"]


RUNNERS = ["fig1", "fig3", "gaussian", "circle-vs-line"]


@pytest.mark.parametrize(
    "reference, command",
    [("smoke", c) for c in RUNNERS] + [("full", c) for c in RUNNERS],
    ids=RUNNERS + [f"full-{c}" for c in RUNNERS],
)
def test_runner_reproduces_smoke_reference(tmp_path, capsys, reference, command):
    # a change meant to move no output keeps every runner's CSV byte for byte
    # at the benchmark's settings, as the benchmark itself checks; the full
    # settings pin the most fragile cell, circle-vs-line's f_circle_stderr at
    # lam = 0.999, whose 8th digit follows the samples' last bits
    config = _run_constant("CONFIGS")[reference]
    out = tmp_path / f"{command}.csv"
    argv = [command, "--lambda-points", str(config["lambda_points"]),
            "--samples", str(config["samples"]), "--tol", config["tol"],
            "--alpha", config["alpha"], "--seed", str(_run_constant("DEFAULT_SEED")),
            "--out", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    assert out.read_bytes() == (PERFBENCH / "reference" / reference / f"{command}.csv").read_bytes()


def test_moments_converged_and_positive():
    # the moments the bounds rest on: converged in the node counts, and with
    # a positive variance of the sample variance even at the 0.999 cap
    for lam in default_lambda_grid():
        base = line_circle_central_moments(5.0, lam)
        doubled = line_circle_central_moments(5.0, lam, n_r=400, n_phi=1024)
        for (mu, mu2, mu4), (mu_d, mu2_d, mu4_d) in zip(base, doubled):
            assert abs(mu - mu_d) <= 1e-12
            assert abs(mu2 - mu2_d) <= 1e-9 * mu2_d
            assert abs(mu4 - mu4_d) <= 1e-8 * mu4_d
            assert mu4 - mu2 * mu2 > 0.0
