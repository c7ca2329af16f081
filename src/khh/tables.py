"""Dimension tables with canonical serialization.

Reports are tables of exact integer dimensions over named integer axes.
The JSON form is canonical (sorted keys, comma-joined cell coordinates,
integers only) so that identical inputs produce byte-identical output;
text and CSV renderings are derived views.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class DimensionTable:
    label: str
    axes: tuple
    cells: dict = field(default_factory=dict)  # tuple of ints -> int
    metadata: dict = field(default_factory=dict)

    def set(self, coords, value: int):
        coords = tuple(int(c) for c in coords)
        if len(coords) != len(self.axes):
            raise ValueError(f"expected {len(self.axes)} coordinates, got {coords}")
        self.cells[coords] = int(value)

    def to_json_obj(self):
        return {
            "label": self.label,
            "axes": list(self.axes),
            "cells": {
                ",".join(str(c) for c in coords): value
                for coords, value in sorted(self.cells.items())
            },
            "metadata": self.metadata,
        }

    def canonical_json(self) -> str:
        return canonical_json(self.to_json_obj())

    def to_text(self) -> str:
        lines = [f"# {self.label}"]
        for key in sorted(self.metadata):
            lines.append(f"# {key} = {self.metadata[key]}")
        header = list(self.axes) + ["dim"]
        rows = [
            [str(c) for c in coords] + [str(v)]
            for coords, v in sorted(self.cells.items())
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for r in rows:
            lines.append("  ".join(x.rjust(w) for x, w in zip(r, widths)))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = [",".join(list(self.axes) + ["dim"])]
        for coords, v in sorted(self.cells.items()):
            lines.append(",".join([str(c) for c in coords] + [str(v)]))
        return "\n".join(lines) + "\n"


def canonical_json(obj) -> str:
    """Sorted keys, tight separators, trailing newline; integers only."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def render(tables, fmt: str) -> str:
    """Render one or more tables in the requested format."""
    if isinstance(tables, DimensionTable):
        tables = [tables]
    if fmt == "json":
        if len(tables) == 1:
            return tables[0].canonical_json()
        return canonical_json([t.to_json_obj() for t in tables])
    if fmt == "text":
        return "\n".join(t.to_text() for t in tables)
    if fmt == "csv":
        return "\n".join(t.to_csv() for t in tables)
    raise ValueError(f"unknown format {fmt!r}")
