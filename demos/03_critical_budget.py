"""Locate the critical control budget for a few convex regions.

The critical budget M0 is the smallest removal rate that drives the
region to extinction.  Balls are the worst case relative to their area:
M0 equals the perimeter exactly, while any other shape needs strictly
more than the isoperimetric rate 2*sqrt(pi*area).
"""

import math

from shrinkset import RoundedSet, ball_time_at_critical, critical_budget, rounded_area

shapes = {
    "unit ball": RoundedSet.ball((0, 0), 1.0),
    "unit square": RoundedSet.from_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
    "2x1 rectangle": RoundedSet.from_polygon([(0, 0), (2, 0), (2, 1), (0, 1)]),
    "rounded square": RoundedSet.from_polygon(
        [(0, 0), (1, 0), (1, 1), (0, 1)], radius=0.2
    ),
}

print(f"{'shape':<16} {'M0':>10} {'2*sqrt(pi*A)':>14} {'excess':>8} {'ball time':>10}")
for name, s in shapes.items():
    m0 = critical_budget(s, tol=1e-4)
    floor = 2 * math.sqrt(math.pi * rounded_area(s))
    t_ball = ball_time_at_critical(s, m0)
    print(f"{name:<16} {m0:10.5f} {floor:14.5f} {m0 - floor:8.5f} {t_ball:10.6f}")

print()
print("the 'ball time' column is when the critical trajectory first")
print("becomes a ball; from then on extinction is a one-dimensional race")
print("between the shrinking radius and the budget.")
