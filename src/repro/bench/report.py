"""Plain-text rendering of tables and figure series.

Keeps formatting concerns out of the measurement code: tables are lists
of dicts, figure series are name → samples or name → (x, y) points, and
this module turns either into aligned monospace text for benchmark
output and EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from repro.bench.metrics import summarize

Number = Union[int, float]


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:,.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_table(rows: List[Dict[str, object]], title: str = "") -> str:
    """Render rows (dicts sharing keys) as an aligned text table."""
    if not rows:
        return f"{title}\n(no data)\n" if title else "(no data)\n"
    columns = list(rows[0].keys())
    cells = [[_format_value(row[column]) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(row[index]) for row in cells))
        for index, column in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(
        column.ljust(width) for column, width in zip(columns, widths)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in cells:
        lines.append(
            "  ".join(value.rjust(width) for value, width in zip(row, widths))
        )
    return "\n".join(lines) + "\n"


def render_boxplot(
    series: Dict[str, Sequence[Number]],
    title: str = "",
    unit: str = "s",
    scale: float = 1.0,
) -> str:
    """Render box-plot series as min/median/mean/max summary rows.

    The paper's box plots reduce to these summary statistics for a text
    rendering; relative ordering of medians/means is the reproducible
    "shape".
    """
    rows: List[Dict[str, object]] = []
    for name in sorted(series):
        samples = [value * scale for value in series[name]]
        stats = summarize(samples)
        rows.append(
            {
                "Function": name,
                f"min ({unit})": stats["min"],
                f"median ({unit})": stats["median"],
                f"mean ({unit})": stats["mean"],
                f"max ({unit})": stats["max"],
                "n": len(samples),
            }
        )
    return render_table(rows, title=title)


def render_series(
    series: Dict[str, List[Tuple[int, float]]],
    title: str = "",
    x_label: str = "size",
    y_label: str = "seconds",
) -> str:
    """Render line series (name → [(x, y), ...]) as a wide table."""
    if not series:
        return f"{title}\n(no data)\n" if title else "(no data)\n"
    xs = sorted({x for points in series.values() for x, _ in points})
    rows: List[Dict[str, object]] = []
    for name in sorted(series):
        points = dict(series[name])
        row: Dict[str, object] = {f"{y_label} \\ {x_label}": name}
        for x in xs:
            row[str(x)] = points.get(x, float("nan"))
        rows.append(row)
    return render_table(rows, title=title)


def render_speedups(
    series: Dict[str, Sequence[float]], reference: str = "STL", title: str = ""
) -> str:
    """Render mean speedups of every function relative to a reference.

    Speedup > 1 means faster than the reference (lower time); this is how
    the paper states "5.01% over STL" and "almost 50x" claims.
    """
    if reference not in series:
        raise KeyError(f"reference {reference!r} missing from series")
    reference_mean = sum(series[reference]) / len(series[reference])
    rows: List[Dict[str, object]] = []
    for name in sorted(series):
        mean = sum(series[name]) / len(series[name])
        rows.append(
            {
                "Function": name,
                "mean (s)": mean,
                f"speedup vs {reference}": reference_mean / mean,
            }
        )
    rows.sort(key=lambda row: -float(row[f"speedup vs {reference}"]))
    return render_table(rows, title=title)
