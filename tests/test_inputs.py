"""One rule for bad scalar inputs: every public float parameter that must be
finite refuses NaN and both infinities with a ShrinksetError that is also a
ValueError, and names the parameter, instead of returning a NaN or a bool."""

import functools
import math

import pytest

from shrinkset import (
    BadConfigError,
    RoundedSet,
    ShrinksetError,
    ball_time_at_critical,
    boundary_length_in_disk,
    check_admissible,
    classify,
    compute_cost,
    contains,
    critical_budget,
    dilate,
    erode,
    free_arc_turning,
    invert_opening_area,
    opening,
    optimal_subset,
    perimeter_of_area,
    polygon_erode,
    raster_dilate,
    raster_erode,
    raster_opening,
    rasterize,
    reconstruct_set,
    simulate,
    support,
)
from shrinkset.errors import require_finite

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def sq() -> RoundedSet:
    return RoundedSet.from_polygon(SQUARE)


@functools.cache
def _trace():
    return simulate(sq(), 4.0, 1.0)


@functools.cache
def _live_trace():
    # the square at M = 4 dies at T* = 0.83: up to 0.5 the trace has no T*,
    # so an infinite cost horizon lies beyond it
    return simulate(sq(), 4.0, 0.5)


@functools.cache
def _grid():
    return rasterize(sq(), 0.05)


# (label, the call with the bad value x in one parameter, the parameter's name)
CASES = [
    ("RoundedSet-radius", lambda x: RoundedSet(sq().kernel, x), "radius"),
    ("boundary_length_in_disk-r", lambda x: boundary_length_in_disk(sq(), (0, 0), x), "radius"),
    ("support-theta", lambda x: support(sq(), x), "theta"),
    ("contains-tol", lambda x: contains(sq(), dilate(sq(), 1.0), x), "tol"),
    ("dilate-r", lambda x: dilate(sq(), x), "dilation radius"),
    ("polygon_erode-d", lambda x: polygon_erode(sq().kernel, x), "erosion depth"),
    ("erode-r", lambda x: erode(sq(), x), "erosion radius"),
    ("opening-rho", lambda x: opening(sq(), x), "opening radius"),
    ("rasterize-h", lambda x: rasterize(sq(), x), "cell size"),
    ("raster_dilate-r", lambda x: raster_dilate(_grid(), x), "dilation radius"),
    ("raster_erode-r", lambda x: raster_erode(_grid(), x), "erosion radius"),
    ("raster_opening-rho", lambda x: raster_opening(_grid(), x), "opening radius"),
    ("simulate-M", lambda x: simulate(sq(), x, 1.0), "budget M"),
    ("simulate-horizon", lambda x: simulate(sq(), 4.0, x), "horizon"),
    ("simulate-dt", lambda x: simulate(sq(), 4.0, 1.0, x), "dt"),
    ("compute_cost-c1", lambda x: compute_cost(_trace(), x, 0.0, 0.5), "cost weight c1"),
    ("compute_cost-c2", lambda x: compute_cost(_trace(), 0.0, x, 0.5), "cost weight c2"),
    ("compute_cost-T", lambda x: compute_cost(_live_trace(), 1.0, 0.0, x), "cost horizon"),
    ("reconstruct_set-t", lambda x: reconstruct_set(_trace(), x), "time"),
    ("optimal_subset-a", lambda x: optimal_subset(sq(), x), "target area"),
    ("perimeter_of_area-a", lambda x: perimeter_of_area(sq(), x), "target area"),
    ("invert_opening_area-a", lambda x: invert_opening_area(sq(), x), "area"),
    ("free_arc_turning-rho", lambda x: free_arc_turning(sq(), x), "rho"),
    ("check_admissible-delta", lambda x: check_admissible(_trace(), x, 1e-9), "delta"),
    ("check_admissible-tol", lambda x: check_admissible(_trace(), 0.01, x), "tol"),
    ("classify-M", lambda x: classify(sq(), x), "budget M"),
    ("critical_budget-tol", lambda x: critical_budget(sq(), x), "tol"),
    ("ball_time_at_critical-M", lambda x: ball_time_at_critical(sq(), x), "budget M"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call, name", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_nonfinite_scalar_refused(call, name, value):
    with pytest.raises(ShrinksetError, match=f"^{name} must be finite") as info:
        call(value)
    assert isinstance(info.value, BadConfigError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "low, strict, rule",
    [
        (-math.inf, False, "finite"),
        (0.0, False, "finite and nonnegative"),
        (0.0, True, "finite and positive"),
        (1.0, False, "finite and at least 1.0"),
        (1.0, True, "finite and above 1.0"),
    ],
)
def test_require_finite_states_its_rule(low, strict, rule):
    require_finite("x", 2.0, low, strict)
    with pytest.raises(BadConfigError, match=f"^x must be {rule}, got nan$"):
        require_finite("x", math.nan, low, strict)
    if low > -math.inf:
        # the bound itself passes unless strict
        if strict:
            with pytest.raises(BadConfigError):
                require_finite("x", low, low, strict)
        else:
            require_finite("x", low, low, strict)
