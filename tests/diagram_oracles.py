"""Test-side readers of the diagrams module's output."""

from __future__ import annotations

import re


def svg_point_set(svg_text: str) -> set[tuple[int, int]]:
    """Extract the marked cells back out of a rendered SVG (golden-file keys)."""
    pts = set()
    for m in re.finditer(r'data-r="(-?\d+)" data-i="(-?\d+)"', svg_text):
        pts.add((int(m.group(1)), int(m.group(2))))
    return pts
