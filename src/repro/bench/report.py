"""Fixed-width table rendering for paper-shaped benchmark output.

Every benchmark module prints its table/figure in the same layout the
paper uses, so EXPERIMENTS.md can quote the output directly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

Cell = Union[str, int, float, None]


class Table:
    """A minimal monospaced table.

    >>> t = Table(["algo", "Mlps"], title="demo")
    >>> t.add_row(["Poptrie18", 240.52])
    >>> print(t.render())  # doctest: +ELLIPSIS
    demo
    ...
    """

    def __init__(self, headers: Sequence[str], title: Optional[str] = None):
        self.headers = list(headers)
        self.title = title
        self.rows: List[List[str]] = []

    @staticmethod
    def _format(cell: Cell) -> str:
        if cell is None:
            return "N/A"
        if isinstance(cell, float):
            return f"{cell:.2f}"
        return str(cell)

    def add_row(self, cells: Iterable[Cell]) -> None:
        self.rows.append([self._format(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        print()
        print(self.render())
        print()


def metrics_dump() -> str:
    """The active registry's Prometheus text dump, or "" when obs is off."""
    from repro import obs

    if not obs.enabled():
        return ""
    return obs.registry().render()
