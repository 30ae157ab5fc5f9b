"""Parameter sweeps and experiment reports.

The harness module measures one quantity against one size parameter
(:class:`repro.experiments.harness.ScalingSeries`); this module layers two
conveniences used by the benchmark suite and the examples on top of it:

* :func:`sweep` -- run several measurements over the same size grid, with
  optional timing, and collect every series at once;
* :class:`ExperimentReport` -- accumulate named series, render them as a
  single side-by-side table (one row per size), classify each series' growth,
  and export the whole report as a Markdown fragment that can be pasted into
  EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.experiments.harness import ScalingSeries, classify_growth, format_table


def timed(function: Callable[[int], object]) -> Callable[[int], float]:
    """Wrap a measurement so the recorded value is its wall-clock time in seconds."""

    def measure(size: int) -> float:
        start = time.perf_counter()
        function(size)
        return time.perf_counter() - start

    return measure


def sweep(
    sizes: Iterable[int],
    measurements: Mapping[str, Callable[[int], float]],
) -> dict[str, ScalingSeries]:
    """Run every measurement on every size and collect one series per measurement.

    Sizes are iterated in the outer loop so that measurements of the same size
    see comparable machine state (caches, garbage-collector pressure).
    """
    series = {name: ScalingSeries(name) for name in measurements}
    for size in sizes:
        for name, measure in measurements.items():
            series[name].add(size, float(measure(size)))
    return series


@dataclass
class ExperimentReport:
    """A set of scaling series reported together, one table row per size.

    The report keeps the order in which series are added; every series must
    cover the same sizes (adding a series with different sizes raises
    ``ValueError`` at rendering time, which keeps misaligned tables from
    silently printing garbage).
    """

    title: str
    size_label: str = "n"
    series: list[ScalingSeries] = field(default_factory=list)

    def add_series(self, series: ScalingSeries) -> None:
        self.series.append(series)

    def add(self, name: str, rows: Iterable[tuple[float, float]]) -> None:
        """Convenience: add a named series from (size, value) pairs."""
        fresh = ScalingSeries(name)
        for size, value in rows:
            fresh.add(size, value)
        self.series.append(fresh)

    def run(
        self, sizes: Iterable[int], measurements: Mapping[str, Callable[[int], float]]
    ) -> "ExperimentReport":
        """Sweep the measurements and add the resulting series to this report."""
        for series in sweep(sizes, measurements).values():
            self.add_series(series)
        return self

    # -- rendering --------------------------------------------------------------------

    def _sizes(self) -> list[float]:
        if not self.series:
            return []
        reference = self.series[0].sizes
        for series in self.series[1:]:
            if series.sizes != reference:
                raise ValueError(
                    f"series {series.name!r} covers sizes {series.sizes}, "
                    f"expected {reference}"
                )
        return reference

    def table(self, precision: int = 5) -> str:
        """A plain-text table with one column per series."""
        sizes = self._sizes()
        headers = [self.size_label] + [series.name for series in self.series]
        rows = []
        for index, size in enumerate(sizes):
            row: list[object] = [int(size) if float(size).is_integer() else size]
            for series in self.series:
                value = series.values[index]
                row.append(int(value) if float(value).is_integer() else round(value, precision))
            rows.append(row)
        return format_table(headers, rows)

    def growth_summary(self) -> dict[str, str]:
        """The coarse growth label of every series."""
        return {series.name: classify_growth(series) for series in self.series}

    def to_markdown(self, precision: int = 5) -> str:
        """The report as a Markdown fragment (title, table, growth labels)."""
        sizes = self._sizes()
        headers = [self.size_label] + [series.name for series in self.series]
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join("---" for _ in headers) + "|")
        for index, size in enumerate(sizes):
            cells = [str(int(size) if float(size).is_integer() else size)]
            for series in self.series:
                value = series.values[index]
                cells.append(str(int(value) if float(value).is_integer() else round(value, precision)))
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
        for name, label in self.growth_summary().items():
            lines.append(f"* {name}: {label}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return f"{self.title}\n{self.table()}"
