"""Reference for raster._cover: the corner-rectangle cover with its slot
table, doubling table and envelopes in intp lanes at every frame width.
"""

from __future__ import annotations

import numpy as np

from shrinkset import raster
from shrinkset.raster import RasterGrid


def cover(grid: RasterGrid, w: np.ndarray) -> RasterGrid:
    """raster._cover with intp lanes throughout (see its docstring)."""
    ny, nx = grid.shape
    k = len(w) - 1
    y, start = np.divmod(grid._lo, nx + 1)
    end = grid._hi - y * (nx + 1)
    # the runs come by row, so a stable sort by index keeps each index's rows in order
    order = np.argsort(np.arange(len(y)) - np.searchsorted(y, y), kind="stable")
    y, start, end = y[order], start[order], end[order]
    new = np.ones(len(y), dtype=bool)
    new[1:] = ~((y[1:] == y[:-1] + 1) & (start[1:] <= end[:-1]) & (start[:-1] <= end[1:]))
    # piece p's slots start at base[p] = first[p] + 2K p with its first run,
    # and slot base[p] + j is row y[first[p]] - K + j
    first = np.flatnonzero(new)
    base = first + 2 * k * np.arange(len(first))
    size = len(y) + 2 * k * len(first)
    row = np.arange(size) + np.repeat(y[first] - k - base, np.diff(base, append=size))
    # every slot has a run within K rows, so the empty slots' value never
    # wins; slot s of the buffer is src slot 2K + s, after 2K empty slots
    src = np.full((2 * k + size, 2), np.iinfo(np.intp).max, dtype=np.intp)
    slot = 2 * k + np.arange(len(y)) + 2 * k * (np.cumsum(new) - 1)
    src[slot] = np.column_stack((start, -end))
    # t becomes the table: t slot i holds the least src slot i ... i + span - 1
    t, span = src.ravel(), 1
    env, part = np.full(2 * size, np.iinfo(np.intp).max), np.empty(2 * size, np.intp)
    for e in np.flatnonzero(np.diff(w, append=-1) < 0).tolist():
        # slot s's window, src slots s + K - e ... s + K + e, is two spans
        while 2 * span <= 2 * e + 1:
            np.minimum(t[: -2 * span], t[2 * span :], out=t[: -2 * span])
            span *= 2
        a, b = 2 * (k - e), 2 * (k + e + 1 - span)
        np.minimum(t[a : a + 2 * size], t[b : b + 2 * size], out=part)
        part -= w[e]
        np.minimum(env, part, out=env)
    del src, t, part  # free the table: the merge below reads env alone
    keep = (row >= 0) & (row < ny)
    # each interval holds its piece's cells on a source row, so it is not empty
    cell0 = row[keep] * (nx + 1)
    lo = cell0 + np.maximum(env[0::2][keep], 0)
    lo, hi = raster._union(lo, cell0 - np.maximum(env[1::2][keep], -nx))
    return raster._grid(grid.origin, grid.h, grid.shape, lo, hi)

