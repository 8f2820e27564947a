"""The benchmark's reference CSVs certify themselves.

Each closed-form cell under ``perfbench/reference/{full,smoke}`` is checked
against its formula, each optimiser cell against its closed-form optimum,
and each Monte Carlo cell against the exact moments of the one-shot
fidelity (``tests/oracles.py``), so a reference regenerated with a wrong
seed, size, formula or optimiser fails here.  Each runner, run with the
arguments the benchmark runs it with (``job_argv`` of ``perfbench/run.py``,
loaded from its source by ``tests/match_reference.py``), must also rewrite
its smoke and full references byte for byte, also with numpy's run-time
SIMD dispatch switched off, and the closed-form runners also with no numpy
importable.  At another seed the Monte Carlo runners hold the references by
the benchmark's statistical rule (``tests/match_reference.py``).  Nothing
under ``perfbench/`` is written.  The bounds are fixed; a regeneration must
pass them unchanged.
"""

import csv
import json
import math
import os

import pytest

from cvteleport.cli import main
from cvteleport.experiments import ExperimentConfig, default_lambda_grid
import match_reference
from oracles import (
    covariance_variances,
    exact_cells,
    golden_section_max,
    line_circle_central_moments,
    optimal_gain,
    optimal_tailoring,
)
from test_package import fresh_python

perfbench_run = match_reference.perfbench_run
CONFIGS, DEFAULT_SEED = perfbench_run.CONFIGS, perfbench_run.DEFAULT_SEED
REFERENCE = perfbench_run.REFERENCE  # a directory per config
REFERENCES = list(CONFIGS)
RUNNERS = list(perfbench_run.MC_COLUMNS)
ALPHABET_S = ExperimentConfig().s  # the references run at the default alphabet

# A Monte Carlo mean lies within PULL_BOUND standard errors of the exact
# mean, and a standard error within PULL_BOUND of its own delta-method
# standard deviations of the exact one (worst at the references' seeds:
# 2.99 and 2.35 for full, 2.04 and 1.52 for smoke).
PULL_BOUND = 4.0


def _columns(reference, command):
    """Each column of a reference CSV by name, as the text of its cells."""
    with open(REFERENCE / reference / f"{command}.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _ninth_digit(x):
    """One unit in the 9th significant digit of ``x``."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 8)


@pytest.mark.parametrize("reference", REFERENCES)
def test_closed_form_columns(reference):
    off = []
    for command, column in [("fig1", "f_standard"), ("fig3", "f_standard"),
                            ("fig3", "f_disp_only")]:
        cells = _columns(reference, command)
        for lam, text in zip(cells["lambda"], cells[column]):
            value = exact_cells(command, float(lam), ALPHABET_S)[column]
            if abs(float(text) - value) > _ninth_digit(value):
                off.append(f"{command} {column} at lam={lam}: {text} != {value!r}")
    assert off == []


@pytest.mark.parametrize("reference", REFERENCES)
def test_monte_carlo_columns(reference):
    config = CONFIGS[reference]
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


# An optimiser cell holds its closed-form optimum: a value to one unit in the
# 9th significant digit, an argument to ARG_TOLS times the run's --tol.
# Golden-section search brackets a flat maximum only until float rounding
# stops ordering its evaluations, so an argument is tol-close, not exact
# (worst at the references: 3.56, 0.34 and 1.17 tol for eta*, g2* and g*).
ARG_TOLS = 10.0


@pytest.mark.parametrize("reference", REFERENCES)
def test_optimiser_columns(reference):
    tol = float(CONFIGS[reference]["tol"])
    # each runner's optimum: its value's column, then its arguments'
    optima = {"fig3": ("f_full", "eta_star", "g2_star"), "gaussian": ("f_opt", "g_opt")}
    off = []
    for command, (value_column, *argument_columns) in optima.items():
        cells = _columns(reference, command)
        for i, lam in enumerate(cells["lambda"]):
            exact = exact_cells(command, float(lam), ALPHABET_S)
            bounds = {value_column: _ninth_digit(exact[value_column]),
                      **dict.fromkeys(argument_columns, ARG_TOLS * tol)}
            for column, bound in bounds.items():
                if abs(float(cells[column][i]) - exact[column]) > bound:
                    off.append(f"{command} {column} at lam={lam}: "
                               f"{cells[column][i]} != {exact[column]!r}")
    assert off == []


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.98, 0.999])
def test_closed_form_optima_against_golden_section(lam):
    # a second witness for the closed forms, sharing no algebra with them:
    # golden-section at tol 1e-13 over the covariance-matrix variances, and
    # over the expanded common-gain variance; the values agree to rounding,
    # the arguments only to the flat maximum's resolution
    def tailored(eta, g2):
        (v_plus, v_minus), _ = covariance_variances(lam, eta, g2)
        return 2.0 / math.sqrt((v_plus + 1.0) * (v_minus + 1.0))

    def best_g2(eta):
        return golden_section_max(lambda g2: tailored(eta, g2), 0.0, 2.0, 1e-13)

    eta, f = golden_section_max(lambda x: best_g2(x)[1], 0.0, math.pi / 4, 1e-13)
    f_exact, eta_exact, g2_exact = optimal_tailoring(lam)
    assert abs(f - f_exact) <= 1e-12
    assert abs(eta - eta_exact) <= 1e-7
    assert abs(best_g2(eta)[0] - g2_exact) <= 1e-7

    G, s = 1.0 / ((1.0 - lam) * (1.0 + lam)), ALPHABET_S
    g, f = golden_section_max(
        lambda g: 2.0 / (2.0 * G - 4.0 * g * math.sqrt(G * (G - 1.0)) + 2.0 * g * g * G
                         + 4.0 * s * s * (1.0 - g) ** 2),
        0.0, 2.0, 1e-13,
    )
    f_exact, g_exact = optimal_gain(lam, s)
    assert abs(f - f_exact) <= 1e-12
    assert abs(g - g_exact) <= 1e-7


def _runner_argv(reference, command, out_dir, seed=DEFAULT_SEED):
    """The CLI arguments the benchmark runs ``command`` with at ``reference``'s
    config, which made its reference at the default seed.  The CSV goes to
    ``out_dir/<command>.csv``; ``out_dir`` is made if it is missing."""
    out_dir.mkdir(exist_ok=True)
    return perfbench_run.job_argv(command, [], CONFIGS[reference], seed, out_dir)


def _reference_bytes(reference, command):
    return (REFERENCE / reference / f"{command}.csv").read_bytes()


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
    assert main(_runner_argv(reference, command, tmp_path)) == 0, capsys.readouterr().err
    assert (tmp_path / f"{command}.csv").read_bytes() == _reference_bytes(reference, command)


def test_references_hold_without_simd_dispatch(tmp_path):
    # the byte-identical contract rests on numpy's Generator streams and on
    # the kernel's operation and chunk order, not on the SIMD level numpy
    # picks at run time: with every feature it dispatches above its baseline
    # switched off (its exp and log then differ by an ulp here and there),
    # each runner still writes its references byte for byte
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    dispatch = list(getattr(umath, "__cpu_dispatch__", []))
    if not any(umath.__cpu_features__.get(name) for name in dispatch):
        pytest.skip("numpy dispatches nothing above its baseline on this CPU")
    runs = {f"{r}/{c}.csv": _runner_argv(r, c, tmp_path / r) for r in REFERENCES for c in RUNNERS}
    probe = (
        "import json\n"
        "from numpy._core import _multiarray_umath as umath\n"
        "from cvteleport.cli import main\n"
        f"print(json.dumps({{n: umath.__cpu_features__.get(n) for n in {dispatch!r}}}))\n"
        f"assert all(main(argv) == 0 for argv in {list(runs.values())!r})\n"
    )
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(dispatch))
    features = json.loads(fresh_python(probe, env=env).splitlines()[0])
    assert features == {name: False for name in dispatch}  # the child really ran without them
    changed = [f for f in runs if (tmp_path / f).read_bytes() != (REFERENCE / f).read_bytes()]
    assert changed == []


def test_closed_form_runners_need_no_numpy(tmp_path):
    # fig3 and gaussian are closed forms: in an interpreter where numpy cannot
    # be imported they still write both references byte for byte, so they
    # hold on any supported Python, with or without the pinned numpy
    runs = {f"{r}/{c}.csv": _runner_argv(r, c, tmp_path / r)
            for r in REFERENCES for c in ("fig3", "gaussian")}
    probe = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from cvteleport.cli import main\n"
        f"assert all(main(argv) == 0 for argv in {list(runs.values())!r})\n"
    )
    fresh_python(probe)
    changed = [f for f in runs if (tmp_path / f).read_bytes() != (REFERENCE / f).read_bytes()]
    assert changed == []


@pytest.mark.parametrize("reference", REFERENCES)
def test_monte_carlo_runners_hold_the_reference_at_another_seed(tmp_path, capsys, reference):
    # at seed 1 the Monte Carlo cells differ from the references, yet each
    # mean and standard error lies where the benchmark's statistical rule
    # puts it, and every other cell matches to 9 digits: the rule CI's smoke
    # job applies on Pythons whose numpy may draw other bytes
    outs = [tmp_path / f"{command}.csv" for command in ("fig1", "circle-vs-line")]
    for out in outs:
        argv = _runner_argv(reference, out.stem, tmp_path, seed=1)
        assert main(argv) == 0, capsys.readouterr().err
        assert out.read_bytes() != _reference_bytes(reference, out.stem)
    capsys.readouterr()
    assert match_reference.main([reference, *map(str, outs)]) == 0, capsys.readouterr().out


@pytest.mark.parametrize("pulls", [4.0, 6.0])
def test_monte_carlo_rule_bounds_a_mean_at_five_standard_errors(tmp_path, capsys, pulls):
    # a copy of the smoke reference with its first f_circle mean moved by 4
    # combined standard errors passes; moved by 6, past the bound of 5, it
    # fails on that cell alone (the copy's standard error is the reference's)
    lines = (REFERENCE / "smoke" / "circle-vs-line.csv").read_text().splitlines()
    header, row = lines[0].split(","), lines[1].split(",")
    i = header.index("f_circle")
    mean, se = float(row[i]), float(row[header.index("f_circle_stderr")])
    row[i] = repr(mean + pulls * math.hypot(se, se))
    copy = tmp_path / "circle-vs-line.csv"
    copy.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
    expected = [f"circle-vs-line row 0 f_circle: {row[i]} vs reference {mean!r} "
                "beyond 5 combined standard errors"] if pulls > 5.0 else []
    assert match_reference.main(["smoke", str(copy)]) == (1 if expected else 0)
    assert capsys.readouterr().out.splitlines() == expected


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
