"""Benchmark harness over the synthetic uniform matrices.

A grid cell is (size, rank, method).  Every trial regenerates the input
from a derived seed; the seeded NMF methods additionally run a
configurable number of random restarts per trial and report the spread.
Cells run one after another and are pure functions of (grid, seed), so a
report's errors are reproducible bit for bit; only wall times vary.
"""

from dataclasses import asdict, dataclass, field, fields
from statistics import mean, median
from typing import Optional

from .datagen import gen_uniform
from .errors import DomainError, NlrmError
from .rng import derive_seed
from .solvers import METHODS, SolverConfig, solve

TABLE1_SIZES = (200, 400, 800)
REPORT_SCHEMA = 1


@dataclass
class BenchCell:
    """Aggregated result of one (size, rank, method) grid cell."""

    family: str
    m: int
    n: int
    rank: int
    method: str
    mean_rel_error: float = float("nan")
    min_rel_error: float = float("nan")
    max_rel_error: float = float("nan")
    mean_seconds: float = float("nan")
    median_seconds: float = float("nan")
    trials: int = 0
    restarts: int = 0
    error: Optional[str] = None


@dataclass
class BenchReport:
    schema: int
    suite: str
    seed: int
    cells: list = field(default_factory=list)

    def to_dict(self):
        """``asdict``, with a failed cell's ``nan`` numbers as ``None``: JSON has no NaN."""
        report = asdict(self)
        cells = [{k: None if v != v else v for k, v in c.items()} for c in report["cells"]]
        return {**report, "cells": cells}


def table1_grid(sizes=None):
    """(size, rank) pairs of the synthetic benchmark: ranks n/20, n/10, n/5.

    ``sizes`` replaces the paper's size list :data:`TABLE1_SIZES`.
    """
    grid = []
    for n in TABLE1_SIZES if sizes is None else sizes:
        for divisor in (20, 10, 5):
            grid.append((n, max(1, n // divisor)))
    return grid


def run_bench(
    grid,
    methods=METHODS,
    trials: int = 1,
    restarts: int = 10,
    seed: int = 0,
    tol: float = 1e-6,
    max_iter: int = 500,
    suite: str = "custom",
) -> BenchReport:
    """Run the requested methods over ``grid`` and aggregate per cell.

    ``grid`` is a list of (size, rank) pairs; inputs are square uniform
    matrices.  A cell whose rank is not in [1, size], or a bad ``trials``,
    ``restarts``, ``tol`` or ``max_iter``, raises :class:`DomainError`
    before any cell runs; errors inside a cell are recorded on the cell,
    not raised.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    for n, rank in grid:
        if not 1 <= rank <= n:
            raise DomainError(f"invalid cell: size {n} with rank {rank}")
    if trials < 1 or restarts < 1:
        raise DomainError(f"trials and restarts must be >= 1, got {trials} and {restarts}")
    # tol and max_iter are shared by every cell: reject bad values before any cell runs
    SolverConfig(rank=1, max_iter=max_iter, rel_change_tol=tol)

    cells = [
        _run_cell(n, rank, method, trials, restarts, seed, tol, max_iter)
        for (n, rank) in grid
        for method in methods
    ]
    return BenchReport(schema=REPORT_SCHEMA, suite=suite, seed=seed, cells=cells)


def _run_cell(n, rank, method, trials, restarts, seed, tol, max_iter):
    cell = BenchCell(family="uniform", m=n, n=n, rank=rank, method=method)
    # only the NMF methods consume the seed, so only they are restarted
    runs = restarts if method in ("mu", "hals") else 1
    errors = []
    seconds = []
    try:
        for trial in range(trials):
            a = gen_uniform(n, n, derive_seed(seed, trial))
            for restart in range(runs):
                cfg = SolverConfig(
                    rank=rank,
                    max_iter=max_iter,
                    rel_change_tol=tol,
                    seed=derive_seed(seed, 1000 + trial * restarts + restart),
                )
                result = solve(method, a, cfg)
                errors.append(result.rel_error_x)
                seconds.append(result.trace.seconds)
    except NlrmError as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
        return cell
    cell.mean_rel_error = mean(errors)
    cell.min_rel_error = min(errors)
    cell.max_rel_error = max(errors)
    cell.mean_seconds = mean(seconds)
    cell.median_seconds = median(seconds)
    cell.trials = trials
    cell.restarts = runs
    return cell


def report_csv_lines(report: BenchReport):
    """Plot-ready long-format CSV: a row per cell, a column per field but ``error``."""
    names = [f.name for f in fields(BenchCell) if f.name != "error"]
    rows = ([getattr(cell, name) for name in names] for cell in report.cells)
    return [",".join(names)] + [
        ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) for row in rows
    ]
