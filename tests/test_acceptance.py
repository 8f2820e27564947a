"""Acceptance gate: every headline criterion at its pinned tolerance.

Each test prints its one-line pass/fail verdict (visible with ``pytest -s``
or via the ``cvteleport check`` subcommand, which runs the same checks).
"""

import pytest

from cvteleport import acceptance


def _assert_criterion(result):
    print(acceptance.format_line(result))
    assert result.passed, acceptance.format_line(result)


def test_criterion_01_standard_baseline():
    _assert_criterion(acceptance.criterion_standard_baseline())


def test_criterion_02_displacement_only_limit():
    _assert_criterion(acceptance.criterion_line_limit())


def test_criterion_03_full_tailoring_limit():
    _assert_criterion(acceptance.criterion_full_tailoring_limit())


def test_criterion_04_tuned_parameter_asymptotes():
    _assert_criterion(acceptance.criterion_fig3_asymptotes())


def test_criterion_05_curve_ordering():
    _assert_criterion(acceptance.criterion_curve_ordering())


def test_criterion_06_cross_picture_consistency():
    _assert_criterion(acceptance.criterion_cross_picture())


def test_criterion_07_wide_alphabet():
    _assert_criterion(acceptance.criterion_wide_alphabet())


def test_criterion_08_narrow_alphabet_classical_limit():
    _assert_criterion(acceptance.criterion_narrow_alphabet())


def test_criterion_09_circle_line_equivalence():
    # Known red: the line and circle estimators at amplitude 5 carry a
    # systematic offset (up to ~3.8e-3 near lam ~ 0.94, ~3.1e-4 at the
    # 0.999 cap) that exceeds ANY 3-(se_line+se_circle) allowance once the
    # standard errors shrink below it, and the minimum permitted sample
    # size already puts them there at the top of the grid.  The check is
    # kept in this exact form and fails honestly; see README ("Known
    # acceptance result") for the full numbers.
    _assert_criterion(acceptance.criterion_circle_line_equivalence())


def test_criterion_10_property_suites():
    _assert_criterion(acceptance.criterion_property_suites())


def test_run_all_covers_every_criterion(monkeypatch):
    # criteria 4 and 5 share one fig3 computation: one full-tailoring
    # optimisation per grid point, plus criterion 3's single point
    calls = []
    optimize = acceptance.optimize_eta_g2

    def counted(*args, **kwargs):
        calls.append(args)
        return optimize(*args, **kwargs)

    monkeypatch.setattr(acceptance, "optimize_eta_g2", counted)
    results = acceptance.run_all()
    assert [r.number for r in results] == list(range(1, 11))
    assert len({r.name for r in results}) == 10
    assert len(calls) == len(acceptance.default_lambda_grid()) + 1
