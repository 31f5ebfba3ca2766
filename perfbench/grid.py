"""Seeded parameter grids for the xi_sweep and zero_sum workloads.

Points lie in the box spanned by the CLI's built-in grid: alpha in
[0.5, 2] (log-uniform, so alpha and 1/alpha are equally likely), Re z in
[-1, 1] and Im z in [-2, 2].  Every grid starts with 12 fixed anchors: the
box's extremes of alpha and Im z, at Re z = -1, 0 and 1.  The accuracy
margin is thinnest there (rhl's worst point over the box is alpha = 0.5,
z = +-2i), so the reported worst-case margin is a property of the box and
not of which random points a seed happened to draw.  The seeded points
after them vary the work.  The CLI sees only the written file.
"""

import math
import random

ALPHA = (0.5, 2.0)
RE_Z = (-1.0, 1.0)
IM_Z = (-2.0, 2.0)


def anchors():
    return [(a, re, im) for a in ALPHA for re in (RE_Z[0], 0.0, RE_Z[1])
            for im in IM_Z]


def make_grid(seed, n_random):
    """The anchors followed by n_random points drawn from `seed`."""
    rng = random.Random(seed)
    lo, hi = math.log(ALPHA[0]), math.log(ALPHA[1])
    points = anchors()
    for _ in range(n_random):
        points.append((round(math.exp(rng.uniform(lo, hi)), 6),
                       round(rng.uniform(*RE_Z), 6),
                       round(rng.uniform(*IM_Z), 6)))
    return points


def write_grid(path, points, seed):
    """Write points in the CLI's `--grid file:` format."""
    with open(path, "w") as fh:
        fh.write("# perfbench grid, seed %d, %d points\n"
                 % (seed, len(points)))
        for a, re, im in points:
            fh.write("%r %r %r\n" % (a, re, im))
