"""Command-line front end.

Subcommands reproduce each figure-style dataset as CSV plus a key=value
summary block on stdout; ``check`` runs the acceptance suite.  Exit
codes: 0 ok, 1 check failure, 2 bad input, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import acceptance, experiments
from .experiments import ExperimentConfig, default_lambda_grid

_RUNNERS = {
    "fig1": experiments.run_fig1,
    "fig3": experiments.run_fig3,
    "gaussian": experiments.run_gaussian_alphabet,
    "circle-vs-line": experiments.run_circle_vs_line,
}


class Setting(NamedTuple):
    """One run setting: config-file key, value parser, default and flag help."""

    key: str
    type: Callable[[str], object]
    default: object
    metavar: str
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


def _output_path(text: str) -> Path:
    if "\0" in text:  # open() would raise ValueError, not OSError
        raise ValueError(f"output path contains a NUL character: {text!r}")
    return Path(text)


# The one list of settings: it defines the CLI flags, the keys a config
# file may set, how their values parse, and their defaults.  ``--s`` is a
# flag of ``gaussian`` only; ``out`` defaults to ``<command>.csv``.
SETTINGS = (
    Setting("lambda_points", int, experiments.DEFAULT_LAMBDA_POINTS, "N",
            f"uniform grid points on [0, 0.98], 2 to {experiments.MAX_LAMBDA_POINTS}"
            " (plus the 0.999 cap)"),
    Setting("samples", int, experiments.DEFAULT_SAMPLES, "N",
            "Monte Carlo samples per grid point"
            f" ({experiments.MIN_SAMPLES} to {experiments.MAX_SAMPLES:g})"),
    Setting("seed", int, experiments.DEFAULT_SEED, "U64",
            "base seed; per-point seeds are seed XOR point index"),
    Setting("alpha", float, experiments.DEFAULT_ALPHA, "X",
            f"target amplitude of the line/circle curves (at most {experiments.MAX_AMPLITUDE:g})"),
    Setting("s", float, experiments.DEFAULT_S, "X", "alphabet standard deviation"),
    Setting("out", _output_path, None, "PATH", "output CSV path (default <command>.csv)"),
    Setting("tol", float, experiments.DEFAULT_TOL, "X", "optimizer abscissa tolerance"),
    Setting("threads", int, 1, "N",
            "worker threads across grid points (capped at the CPU count)"),
)
_BY_KEY = {setting.key: setting for setting in SETTINGS}


def _add_flag(parser: argparse.ArgumentParser, setting: Setting) -> None:
    parser.add_argument(setting.flag, type=setting.type, default=None,
                        metavar=setting.metavar, help=setting.help)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for setting in SETTINGS:
        if setting.key != "s":
            _add_flag(common, setting)
    common.add_argument("--config", type=str, default=None, metavar="PATH",
                        help="key = value config file; CLI flags take precedence")

    parser = argparse.ArgumentParser(
        prog="cvteleport",
        description="Tailored continuous-variable teleportation curves and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fig1", parents=[common],
                   help="line-tailored displacement curve vs the standard scheme")
    sub.add_parser("fig3", parents=[common],
                   help="full tailoring, displacement-only and standard curves")
    gaussian = sub.add_parser("gaussian", parents=[common],
                              help="gain-optimised fidelity for a Gaussian alphabet")
    _add_flag(gaussian, _BY_KEY["s"])
    sub.add_parser("circle-vs-line", parents=[common],
                   help="Monte Carlo comparison of circle and line strategies")
    sub.add_parser("check", help="run the acceptance suite; nonzero exit on failure")
    return parser


def load_config_file(path: Path) -> dict[str, str]:
    """Parse a plain ``key = value`` config file with ``#`` comments."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _BY_KEY:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value.strip()
    return values


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = {setting.key: setting.default for setting in SETTINGS}
    settings["out"] = Path(f"{args.command}.csv")
    if args.config is not None:
        raw = load_config_file(Path(args.config))
        for key, text in raw.items():
            try:
                settings[key] = _BY_KEY[key].type(text)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
    for key in _BY_KEY:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            settings[key] = cli_value
    return settings


def _experiment_config(settings: dict) -> ExperimentConfig:
    return ExperimentConfig(
        lambda_grid=default_lambda_grid(settings["lambda_points"]),
        n_samples=settings["samples"],
        seed=settings["seed"],
        alpha_line=settings["alpha"],
        s=settings["s"],
        tol=settings["tol"],
        threads=settings["threads"],
    )


def _run_check() -> int:
    results = acceptance.run_all()
    for res in results:
        print(acceptance.format_line(res))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} acceptance criteria passed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "check":
        return _run_check()

    try:
        try:
            settings = _merge_settings(args)
            config = _experiment_config(settings)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = _RUNNERS[args.command](config)
        experiments.write_csv(settings["out"], result.header, result.rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    print(f"wrote {settings['out']} ({len(result.rows)} rows)")
    for key, value in result.summary.items():
        print(f"{key}={format(value, '.9g')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
