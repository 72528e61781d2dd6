"""Simulate controlled shrinking of the unit square at several budgets.

The area obeys a' = P(t, a) - M, where P is the perimeter of the optimal
subset of the t-dilated square at area a.  Small budgets lose to Steiner
growth of the ambient region; large ones drive the set to a point in
finite time, passing through a terminal ball phase.
"""

import math

from shrinkset import RoundedSet, simulate

square = RoundedSet.from_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])

for M in (0.0, 2.0, 3.5, 4.0, 6.0):
    trace = simulate(square, M, horizon=3.0)
    last = f"a({trace.t[-1]:.3f}) = {trace.a[-1]:.6f}"
    if trace.T_star is not None:
        fate = f"extinct at T* = {trace.T_star:.6f}, ball from T† = {trace.T_dagger:.6f}"
    elif 2 * math.sqrt(math.pi * trace.a[-1]) > M:
        fate = f"grows ({last})"
    else:
        fate = f"undecided ({last})"
    print(f"M = {M:4.1f}: {fate}")

print()
print("the critical budget separating the two fates is strictly above the")
print("isoperimetric rate 2*sqrt(pi*area) = {:.6f} of the initial square;".format(
    2 * math.sqrt(math.pi)))
print("see demo 03 for locating it as the root of a closed form.")
