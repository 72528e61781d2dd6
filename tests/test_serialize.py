"""The CSV trace writer against '%.17g': the column formatter value by
value, and whole traces against the row-wise writer it replaced."""

import dataclasses
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import GOLDEN

from shrinkset import RoundedSet, critical_budget, random_rounded_set, simulate
from shrinkset.evolution import default_step
from shrinkset.morphology import BALL, OPENING, STADIUM
from shrinkset.serialize import _BLOCK, _decimal, _float_words, set_from_dict, trace_to_csv

# the formatter's fast range, fixed notation: 1e-4 <= |x| < 1e16
FAST_EXPONENTS = range(-4, 16)


def formatted(values) -> list[str]:
    """Each value's text, read back from the formatter's slot words."""
    words = _float_words(np.asarray(values, dtype=float))
    return [w.tobytes().replace(b"\0", b"").decode() for w in words.T]


def assert_formats(values):
    values = np.asarray(values, dtype=float)
    want = ["%.17g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), formatted(values), want) if g != w]
    assert not bad, bad[:5]


def oracle_csv(trace) -> str:
    """The row-wise writer: one '%' call per row."""
    row = "%.17g,%.17g,%.17g,%s,%.17g\n"
    rows = zip(trace.t.tolist(), trace.a.tolist(), trace.perimeter.tolist(),
               trace.regime, trace.rho.tolist())
    text = "t,a,perimeter,regime,rho\n" + "".join(map(row.__mod__, rows))
    if trace.T_star is not None:
        text += "# T_star=%.17g\n" % trace.T_star
    if trace.T_dagger is not None:
        text += "# T_dagger=%.17g\n" % trace.T_dagger
    return text


def neighbours(x: float, steps: int = 3) -> list[float]:
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def below_powers_of_ten() -> list[tuple[int, float]]:
    """(k, the largest double below 10**k) for every k with one."""
    out = []
    for k in range(-323, 309):
        power = Fraction(10) ** k
        x = float(power)
        if Fraction(x) >= power:
            x = math.nextafter(x, 0.0)
        if x > 0.0:
            out.append((k, x))
    return out


def dyadic_ties(rng, per_exponent=50) -> np.ndarray:
    """N / 2**j, N odd, with exactly 18 significant digits, the last a 5:
    each lies halfway between two 17-digit decimals."""
    out = []
    for e in FAST_EXPONENTS:
        j = 17 - e
        lo = math.ceil(10.0**e * 2**j)
        hi = min(math.floor(10.0 ** (e + 1) * 2**j), 2**53)
        n = rng.integers(lo, hi, per_exponent) | 1
        out.append(np.ldexp(n.astype(float), -j))
    ties = np.concatenate(out)
    ties = ties[(ties >= 10.0 ** min(FAST_EXPONENTS)) & (ties < 1e16)]
    for x in ties[:: len(ties) // 40].tolist():
        digits = Decimal(x).normalize().as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    return ties


class TestFormatter:
    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    def test_any_double(self, values):
        assert_formats(values)

    def test_powers_of_ten_and_neighbours(self):
        powers = [float(f"1e{k}") for k in range(-308, 309)]
        values = [y for x in powers for y in neighbours(x, 1)]
        assert_formats(values)
        assert_formats(np.negative(values))

    def test_range_edges(self):
        # log10 rounds to the next integer next to 1e15 and 1e16
        edges = [1e-4, 1e16, 1e17, 9.999999999999999e14, 1e16 - 2, 1e-5, 1e15]
        values = [y for x in edges for y in neighbours(x)]
        assert_formats(values)
        assert_formats(np.negative(values))

    def test_round_up_to_a_power_of_ten(self):
        ups = [x for _, x in below_powers_of_ten() if ("%.17g" % x).startswith("1e")]
        assert len(ups) >= 5
        assert_formats(ups)
        assert_formats(np.negative(ups))

    def test_no_carry_in_the_fast_range(self):
        # no double of the fast range rounds up to the next power of ten,
        # so the 17-digit integer stays below 1e17
        exponents, below = zip(*[(k - 1, x) for k, x in below_powers_of_ten()
                                 if k - 1 in FAST_EXPONENTS])
        fast, d, e = _decimal(np.array(below))
        assert fast.all() and (d < 10**17).all() and (d >= 10**16).all()
        assert e.tolist() == list(exponents)

    def test_exact_ties_round_half_to_even(self, rng):
        ties = dyadic_ties(rng)
        assert_formats(ties)
        assert_formats(-ties)

    def test_random_bits_and_scales(self, rng):
        bits = rng.integers(0, 2**63, 20_000, dtype=np.int64) * rng.choice([-1, 1], 20_000)
        assert_formats(bits.view(np.float64))
        scaled = rng.random(20_000) * 10.0 ** rng.uniform(-6, 18, 20_000)
        assert_formats(scaled)
        assert_formats(-scaled)

    def test_special_values(self):
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_formats(values)


def sliced(trace, n):
    return dataclasses.replace(
        trace, t=trace.t[:n], a=trace.a[:n], perimeter=trace.perimeter[:n],
        rho=trace.rho[:n], regime=trace.regime[:n],
    )


class TestTraceToCsv:
    @pytest.mark.parametrize("geometry, argv, digest", GOLDEN)
    def test_golden_traces(self, geometry, argv, digest):
        args = {key.lstrip("-"): float(value) for key, value in zip(argv[::2], argv[1::2])}
        trace = simulate(set_from_dict(geometry), args["M"], args["horizon"], args.get("dt"))
        assert trace_to_csv(trace) == oracle_csv(trace)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_hulls_at_a_tenth_of_the_step(self, seed):
        s = random_rounded_set(np.random.default_rng(seed))
        m0 = critical_budget(s)
        for frac in (0.8, 1.2):
            trace = simulate(s, frac * m0, 1.5 * s.diameter, default_step(s) / 10)
            assert len(trace) > _BLOCK
            assert trace_to_csv(trace) == oracle_csv(trace)

    @pytest.mark.parametrize("rows", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_block_boundaries(self, rows):
        square = RoundedSet.from_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        trace = simulate(square, 4.0, 5.0, 1e-4)
        assert len(trace) > 2 * _BLOCK + 1
        part = sliced(trace, rows)
        text = trace_to_csv(part)
        assert text == oracle_csv(part)
        assert sum(not line.startswith("#") for line in text.splitlines()) == rows + 1

    @pytest.mark.parametrize("container", [tuple, list])
    def test_regime_as_a_sequence_of_names(self, container):
        # a caller's trace may hold its regime as a sequence of str; the
        # writer fits each kind, at most 7 ASCII characters, in one word
        # with its comma
        assert all(kind.isascii() and len(kind) <= 7 for kind in (OPENING, STADIUM, BALL))
        rect = RoundedSet.from_polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        trace = simulate(rect, 6.0, 5.0, 1e-4)
        assert len(trace) > _BLOCK and set(trace.regime) == {OPENING, STADIUM, BALL}
        names = dataclasses.replace(trace, regime=container(map(str, trace.regime)))
        assert trace_to_csv(names) == trace_to_csv(trace) == oracle_csv(trace)

    def test_dying_ball_writes_clean(self):
        # r* = M / 2pi = 1.11 > 1: the unit ball dies, and its last row is 0
        trace = simulate(RoundedSet.ball((0.0, 0.0), 1.0), 7.0, 5.0)
        assert trace.T_star is not None and trace.a[-1] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = trace_to_csv(trace)
        assert text == oracle_csv(trace)
