"""Plain-text rendering of experiment results (the rows the paper's figures plot)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ..metrics import SimulationResult
from .runner import Series


def _offered_loads(series: Sequence[Series]) -> List[float]:
    """Every load the panel was run at, whether or not the point survived."""
    return sorted(
        {result.offered_load for entry in series for result in entry.results}
        | {load for entry in series for load, _seed, _reason in entry.missing}
    )


def render_series_table(title: str, series: Sequence[Series]) -> str:
    """Render a load sweep as a text table: one row per series, one column per load.

    A point missing from a series' results prints as ``-``.
    """
    if not series:
        return title
    loads = _offered_loads(series)
    header = "  {:<38s}".format("series") + "".join(f"  load={load:<5.2f}" for load in loads)
    rows = [
        (
            f"{entry.group} {entry.label}".lstrip(),
            {result.offered_load: result for result in entry.results},
        )
        for entry in series
    ]

    def cells(points: Dict[float, SimulationResult], attribute: str, digits: int) -> str:
        return "".join(
            f"  {getattr(points[load], attribute):<10.{digits}f}" if load in points
            else f"  {'-':<10s}"
            for load in loads
        )

    lines = [title, header, "  " + "-" * (len(header) - 2)]
    lines += [f"  {label:<38s}{cells(points, 'accepted_load', 3)}" for label, points in rows]
    lines += ["", "  average packet latency (cycles)"]
    lines += [f"  {label:<38s}{cells(points, 'average_latency', 1)}" for label, points in rows]
    return "\n".join(lines)


def render_bar_table(title: str, series: Sequence[Series]) -> str:
    """Render single-load results as bars: one row per group, one column per
    series label.  A series without a group is a reference bar repeated on
    every row; a missing bar prints as ``-``."""
    groups = list(dict.fromkeys(entry.group for entry in series if entry.group))
    columns = list(dict.fromkeys(entry.label for entry in series))
    bars = {
        (entry.group, entry.label): entry.results[0].accepted_load
        for entry in series if entry.results
    }
    header = "  {:<38s}".format("") + "".join(f"  {c:<12s}" for c in columns)
    lines = [title, header, "  " + "-" * (len(header) - 2)]
    for group in groups:
        values = (bars.get((group, c), bars.get(("", c))) for c in columns)
        cells = "".join(
            f"  {'-':<12s}" if value is None else f"  {f'{value:.3f}':<12s}"
            for value in values
        )
        lines.append(f"  {group:<38s}{cells}")
    return "\n".join(lines)


def render_figure(title: str, panels: Mapping[str, Sequence[Series]]) -> str:
    """Render the panels :func:`~repro.experiments.figures.run_figure`
    returned, one table per panel: bars when the panel was run at a single load and its
    series are grouped, curves otherwise."""
    tables = []
    for pattern, series in panels.items():
        loads = _offered_loads(series)
        if len(loads) == 1 and any(entry.group for entry in series):
            tables.append(render_bar_table(
                f"{title} [{pattern}] (accepted load at {loads[0]:.0%} offered)", series
            ))
        else:
            tables.append(render_series_table(f"{title} [{pattern}]", series))
    return "\n\n".join(tables)

