"""scipy's exact Euclidean distance transform, thresholded: a reference for
the raster oracle's run-length disk pass, which computes no distances.

Each function takes a boolean occupancy mask and the cell size h.  The
dilation pads the mask as `raster_dilate` does; the erosion counts only
the mask's own empty cells, so it is the library's erosion on a mask with
an empty border (every grid from `rasterize`) and needs a one-cell empty
pad otherwise.  A mask with no occupied cell comes back as it is, as the
library returns such a grid unchanged.
"""

import math

import numpy as np
from scipy.ndimage import distance_transform_edt


def edt_dilate(occ, h, r):
    """Cells within r of an occupied cell, on occ padded by ceil(r/h) + 2."""
    if not occ.any():
        return occ
    padded = np.pad(occ, int(math.ceil(r / h)) + 2)
    return distance_transform_edt(~padded, sampling=h) <= r


def edt_erode(occ, h, r):
    """Occupied cells at distance at least r from every empty cell of occ."""
    if not occ.any():
        return occ
    return occ & (distance_transform_edt(occ, sampling=h) >= r)


def edt_opening(occ, h, r):
    return edt_dilate(edt_erode(occ, h, r), h, r)
