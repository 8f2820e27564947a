"""Report the cells of the benchmark's reference CSVs that the code moves.

Run from the repository root as

    PYTHONPATH=src python tests/regen.py

It reruns the four runners at the ``smoke`` and ``full`` configs of
``perfbench/run.py``, with the arguments of ``test_reference._runner_argv``,
into a temporary directory, and compares each CSV with its reference under
``perfbench/reference`` cell by cell.  Each moved cell is printed with its
reference, command, row (0-based, data rows only), column, old and new text.
A moved Monte Carlo cell also gets the mean and standard error of the same
per-sample fidelities from ``math.fsum`` two-pass sums, an estimate that
shares no reduction with the kernel's, so a regeneration can show which
value is the more accurate.  Nothing under ``perfbench/`` is written.

Exit status: 1 if any cell moved, 0 if none did.
"""

import contextlib
import csv
import io
import itertools
import math
import sys
import tempfile
from pathlib import Path

from cvteleport import experiments
from cvteleport.cli import main as cli_main
from cvteleport.measurement import MC_CHUNK, CircleTailored, LineTailored, component_sigma
from test_reference import PERFBENCH, REFERENCES, RUNNERS, _runner_argv

# The Monte Carlo columns, each with the strategy whose estimate it holds
MC_COLUMNS = {
    "f_line": LineTailored,
    "f_circle": CircleTailored,
    "f_tailored_disp_mc": LineTailored,
}


def run_recorded(reference, command, out):
    """Run ``command`` at ``reference``'s config, writing its CSV to ``out``.

    Returns the arguments (strategy, alpha, sq, n, seed) of each Monte Carlo
    estimate the run made, keyed by (strategy type, row): a runner's rows
    follow its increasing lambda grid.
    """
    calls = []
    real = experiments.mc_average_fidelity

    def recording(strategy, alpha, sq, n, seed):
        calls.append((strategy, alpha, sq, n, seed))
        return real(strategy, alpha, sq, n, seed)

    experiments.mc_average_fidelity = recording
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(_runner_argv(reference, command, out))
    finally:
        experiments.mc_average_fidelity = real
    if code != 0:
        raise RuntimeError(f"{command} at the {reference} config exited {code}")
    estimates = {}
    for kind in {type(call[0]) for call in calls}:
        ordered = sorted((c for c in calls if type(c[0]) is kind), key=lambda c: c[2].lam)
        estimates.update({(kind, row): call for row, call in enumerate(ordered)})
    return estimates


def moved_cells(old_path, new_path):
    """(row, column, old text, new text) of each cell that differs; a row or
    column only one file has shows as a cell with the text ``-`` in the other."""
    tables = []
    for path in (old_path, new_path):
        with open(path, newline="") as fh:
            tables.append(list(csv.reader(fh)))
    (old_header, *old_rows), (new_header, *new_rows) = tables
    header = old_header + [c for c in new_header if c not in old_header]
    moved = []
    for row, (old, new) in enumerate(itertools.zip_longest(old_rows, new_rows, fillvalue=[])):
        old_cells = dict(zip(old_header, old))
        new_cells = dict(zip(new_header, new))
        for column in header:
            a, b = old_cells.get(column, "-"), new_cells.get(column, "-")
            if a != b:
                moved.append((row, column, a, b))
    return moved


def fsum_estimate(strategy, alpha, sq, n, seed):
    """(mean, standard error) of the n one-shot fidelities that
    ``mc_average_fidelity(strategy, alpha, sq, n, seed)`` averages.

    The samples are redrawn chunk by chunk from the same streams; the mean
    is ``math.fsum`` over n, and the variance the two-pass
    fsum((f - mean)^2) / (n - 1).
    """
    from cvteleport.kernel import _fidelities_into, _new_workspace, stream

    row, scratch = _new_workspace()
    sigma = component_sigma(sq)
    f = []
    for k in range((n + MC_CHUNK - 1) // MC_CHUNK):
        chunk = row[: min(n - k * MC_CHUNK, MC_CHUNK)]
        _fidelities_into(strategy, (alpha.real, alpha.imag), sq.lam, sigma,
                         stream(seed, k), chunk, scratch)
        f += chunk.tolist()
    mean = math.fsum(f) / n
    var = math.fsum((x - mean) ** 2 for x in f) / (n - 1)
    return mean, math.sqrt(var / n)


def report(out_dir):
    """Print every moved cell of every reference; return how many moved."""
    count = 0
    for reference in REFERENCES:
        for command in RUNNERS:
            out = Path(out_dir) / f"{reference}-{command}.csv"
            estimates = run_recorded(reference, command, out)
            old = PERFBENCH / "reference" / reference / f"{command}.csv"
            for row, column, a, b in moved_cells(old, out):
                line = f"{reference}\t{command}\trow {row}\t{column}\t{a}\t{b}"
                kind = MC_COLUMNS.get(column.removesuffix("_stderr"))
                if (kind, row) in estimates:
                    mean, stderr = fsum_estimate(*estimates[kind, row])
                    line += f"\tfsum mean {mean:.9g}\tfsum stderr {stderr:.9g}"
                print(line)
                count += 1
    return count


def main():
    print("reference\tcommand\trow\tcolumn\told\tnew")
    with tempfile.TemporaryDirectory() as out_dir:
        count = report(out_dir)
    print(f"{count} cells moved")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
