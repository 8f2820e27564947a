"""Command-line front end.

Subcommands reproduce each figure-style dataset as CSV plus a key=value
summary block on stdout; ``check`` runs the acceptance suite.  Exit
codes: 0 ok, 1 check failure, 2 bad input, 3 I/O error, 4 a ``check``
criterion that crashed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import experiments
from .experiments import ExperimentConfig

_RUNNERS = {
    "fig1": experiments.run_fig1,
    "fig3": experiments.run_fig3,
    "gaussian": experiments.run_gaussian_alphabet,
    "circle-vs-line": experiments.run_circle_vs_line,
}


class Setting(NamedTuple):
    """One run setting: config-file key, value parser and flag help."""

    key: str
    type: Callable[[str], object]
    metavar: str
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


def _output_path(text: str) -> Path:
    # ArgumentTypeError, so that argparse prints the reason for ``--out``
    if "\0" in text:  # open() would raise ValueError, not OSError
        raise argparse.ArgumentTypeError(f"output path contains a NUL character: {text!r}")
    if not text:  # Path("") is the working directory, which open() fails on after the run
        raise argparse.ArgumentTypeError("output path is empty")
    return Path(text)


# The one list of settings: it defines the CLI flags, the keys a config
# file may set and how their values parse.  Every key but ``out`` is an
# ``ExperimentConfig`` keyword, which holds its default; ``out`` defaults to
# ``<command>.csv``.  ``--s`` is a flag of ``gaussian`` only.
SETTINGS = (
    Setting("lambda_points", int, "N",
            f"uniform grid points on [0, 0.98], 2 to {experiments.MAX_LAMBDA_POINTS}"
            " (plus the 0.999 cap)"),
    Setting("samples", int, "N",
            "Monte Carlo samples per grid point"
            f" ({experiments.MIN_SAMPLES} to {experiments.MAX_SAMPLES:g})"),
    Setting("seed", int, "U64", "base seed; per-point seeds are seed XOR point index"),
    Setting("alpha", float, "X",
            f"target amplitude of the line/circle curves (at most {experiments.MAX_AMPLITUDE:g})"),
    Setting("s", float, "X", "alphabet standard deviation"),
    Setting("out", _output_path, "PATH", "output CSV path (default <command>.csv)"),
    Setting("tol", float, "X", "optimizer abscissa tolerance"),
    Setting("threads", int, "N",
            "threads across grid points, the calling thread included (capped"
            " at the CPU count); fig1 and circle-vs-line use them"),
)
_BY_KEY = {setting.key: setting for setting in SETTINGS}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose stdout messages (``--help``) go through
    :func:`_print_lines`, so a failed write raises ``OSError`` instead of being
    dropped by argparse, and that takes no abbreviated flag; subparsers are alike."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def _print_message(self, message: str, file=None) -> None:
        if message and file is sys.stdout:
            _print_lines(message.splitlines())
        else:
            super()._print_message(message, file)


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

    parser = _Parser(
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
    """Parse a UTF-8 ``key = value`` config file with ``#`` comments; a leading BOM is skipped."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
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
    """``out`` and every setting a config file or a flag gives; flags win."""
    settings: dict = {"out": Path(f"{args.command}.csv")}
    if args.config is not None:
        raw = load_config_file(Path(args.config))
        for key, text in raw.items():
            try:
                settings[key] = _BY_KEY[key].type(text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
    for key in _BY_KEY:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            settings[key] = cli_value
    return settings


def _run_check() -> tuple[list[str], int]:
    """The acceptance suite's stdout lines and exit code."""
    from . import acceptance  # numpy loads with it

    try:
        results = acceptance.run_all()
    except OSError:
        raise
    except Exception as exc:  # a crash is not a failed check
        import traceback  # not at the top: it would add ~4 ms to every start-up

        traceback.print_exc()
        print(f"error: acceptance check crashed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return [], 4
    lines = [acceptance.format_line(res) for res in results]
    failed = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} acceptance criteria passed")
    return lines, 1 if failed else 0


def _print_lines(lines: list[str]) -> None:
    """Print ``lines`` to stdout and flush them.

    If stdout fails (a full device, a closed pipe), its descriptor is
    pointed at the null device before the error propagates, so the
    interpreter's own flush at exit cannot fail again on the unwritten
    buffer and print a second error.
    """
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise


# Modules numpy loads only if it can, and no run uses.  numpy.random imports
# secrets, whose hmac and hashlib load OpenSSL's _hashlib and libcrypto (3.4
# MiB resident), yet every stream is seeded and nothing hashes; ctypes and
# libffi serve only ndarray.ctypes.  Blocked, hashlib falls back to CPython's
# built-in hashes and numpy to its own no-ctypes stand-in.
_UNUSED_IMPORTS = ("_hashlib", "ctypes")


def main(argv: list[str] | None = None) -> int:
    # Nothing here needs a BLAS thread pool, and each idle OpenBLAS worker
    # spins ~0.1 CPU-s after numpy loads.  OpenBLAS reads this only as numpy is
    # first imported, so it is set before that and unset on return.
    pin_blas = "OPENBLAS_NUM_THREADS" not in os.environ
    if pin_blas:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # Set like the BLAS setting; a module already imported is left alone.
    blocked = [name for name in _UNUSED_IMPORTS if name not in sys.modules]
    for name in blocked:
        sys.modules[name] = None
    try:
        args = _build_parser().parse_args(argv)  # --help prints here
        if args.command == "check":
            lines, code = _run_check()
        else:
            try:
                settings = _merge_settings(args)
                out = settings.pop("out")
                config = ExperimentConfig(**settings)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            result = _RUNNERS[args.command](config)
            experiments.write_csv(out, result.header, result.rows)
            lines = [f"wrote {out} ({len(result.rows)} rows)"]
            lines += [f"{key}={format(value, '.9g')}" for key, value in result.summary.items()]
            code = 0
        _print_lines(lines)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if pin_blas:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        for name in blocked:
            if sys.modules.get(name) is None:
                sys.modules.pop(name, None)
    return code


if __name__ == "__main__":
    sys.exit(main())
