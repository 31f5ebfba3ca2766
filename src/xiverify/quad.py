"""Quadrature over [0, infinity) on shared double-exponential nodes.

Every integral the package takes is w(t) kernel(t) over the half line,
w a weight that does not depend on the parameters of the integral and
kernel a factor that does.  The weight is tabulated once (NodeTable) on
the nodes of the double-exponential rule of Takahasi and Mori (1974), in
the form t = exp(u - e^(-u)) of Mori and Sugihara (2001) for
exponentially decaying integrands: the trapezoid rule in u on nested
levels.  integrate_tabulated then evaluates only the kernel on those
nodes: the table keeps each level's w dt/du beside w, and the nodes up
to the start level are one array per process, so a call forms nothing
that depends on the nodes alone.  The map clusters nodes at t = 0
double exponentially, so an integrable log or power singularity there
needs no split.  Other ranges reduce to the half line: a whole-line
integrand f folds onto it as f(t) + f(-t), which a kernel returns as two
rows of one call.
"""

import functools
from dataclasses import dataclass

import numpy as np

# The double-exponential rule: u runs over [_DE_U_LO, _DE_U_HI], so t over
# [8.9e-42, 243.7]; level L has step _DE_H0 / 2^L and adds the odd
# multiples of its step to the nodes of the levels before.  An integral
# starts at level _DE_START (h = 1/32, 321 nodes) and refines to at most
# _DE_FINEST (h = 1/128, 1281 nodes).
_DE_U_LO, _DE_U_HI = -4.5, 5.5
_DE_H0 = 1.0 / 16.0
_DE_START = 1
_DE_FINEST = 3
# rounding allowance, per unit of h sum |terms|.  At one ulp the h = 1/32
# and h = 1/64 sums of ferrar's Xi side on the default grid differed by
# up to 1.3 times the estimate; at 16 ulps the Xi sides at (1, 10) and
# (1, 10i), near 6e4, could no longer meet an absolute target of 2.5e-9.
_DE_ROUNDING = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureResult:
    """Value, absolute error estimate, evaluation count, truncation point.

    integrate_tabulated builds each field as its annotated Python type
    (not a numpy scalar), so reports stay JSON-ready.

    truncation_T is the rule's last node, 243.7, for every integral, so
    the reports leave it out; the field stays because perfbench's tracer
    (perfbench/tracing.py) reads it from every result that has
    evaluations."""

    value: complex
    abs_error: float
    evaluations: int
    truncation_T: float


@functools.lru_cache(maxsize=None)
def _de_batch(level):
    """The nodes t that level adds and dt/du there, as read-only arrays.

    Level 0 runs over the whole range, endpoints first and last; each
    finer level adds the odd multiples of its step.  Every u is a dyadic
    rational, so a node is the same double at every level that has it.
    """
    h = _DE_H0 / 2 ** level
    n = round((_DE_U_HI - _DE_U_LO) / h)
    k = np.arange(n + 1.0) if level == 0 else np.arange(1.0, n, 2.0)
    u = _DE_U_LO + k * h
    e = np.exp(-u)
    t = np.exp(u - e)
    jac = t * (1.0 + e)
    t.flags.writeable = jac.flags.writeable = False
    return t, jac


@functools.lru_cache(maxsize=None)
def _de_start_nodes(start):
    """The nodes of levels 0..start in level order, read-only: an
    integral's first kernel call takes them when the rule starts at
    level start."""
    t = np.concatenate([_de_batch(L)[0] for L in range(start + 1)])
    t.flags.writeable = False
    return t


class NodeTable:
    """A weight w(t) tabulated on the double-exponential nodes of
    [0, infinity), one batch per level, each built on first use and kept
    for the life of the process together with w dt/du, the factor the
    trapezoid sum multiplies the kernel by.

    weight maps an array of t to w(t), shaped (len(t),) or (rows,
    len(t)).  A derived table (derive) takes its weight as a function of
    t and the base table's values there, so a factor the two share is
    computed once.  An entry depends on its node alone, never on which
    integral asked first, so tables come out bit-identical in any order
    of use.
    """

    def __init__(self, weight, base=None):
        self._weight = weight
        self._base = base
        self._batches = []

    @property
    def levels(self):
        """How many levels are tabulated so far."""
        return len(self._batches)

    def clear(self):
        """Forget every batch, as in a fresh process."""
        self._batches.clear()

    def derive(self, weight):
        """The table of weight(t, w(t)), built from this one's entries."""
        return NodeTable(weight, base=self)

    def __call__(self, t):
        """w at arbitrary t, computed afresh (for cross-checks)."""
        if self._base is None:
            return self._weight(t)
        return self._weight(t, self._base(t))

    def batch(self, level):
        """(t, dt/du w(t), w(t)) on the nodes that level adds."""
        while len(self._batches) <= level:
            L = len(self._batches)
            t, jac = _de_batch(L)
            w = np.asarray(self._weight(t) if self._base is None
                           else self._weight(t, self._base.batch(L)[2]))
            jw = jac * w
            w.flags.writeable = jw.flags.writeable = False
            self._batches.append((t, jw, w))
        return self._batches[level]


def integrate_tabulated(kernel, table, tol):
    """Integrate w(t) kernel(t) over [0, infinity), w tabulated in table.

    The double-exponential trapezoid sum Q_h = h sum_u (w(t) dt/du)
    kernel(t) is taken at the step of _DE_START, with one kernel call on
    all its nodes (_de_start_nodes) and w dt/du from the table.  Its
    error estimate is |Q_h - Q_2h| (Q_2h sums the nodes
    of the levels before, no kernel call of its own), plus
    |w kernel dt/du| at both ends of the u
    range (each truncated tail falls double exponentially in u), plus
    _DE_ROUNDING h sum |terms| for rounding.  The target is relative,
    tol (1 + |Q_h|), with Q_h this level's own sum.  While the estimate
    exceeds it, h halves, with one kernel call on the nodes the new level
    adds; at _DE_FINEST it raises ValueError naming the target instead.
    kernel(t) and w(t) broadcast, (len(t),) against (rows, len(t)), and
    the rows of their product are summed.  evaluations counts the nodes
    passed to kernel; truncation_T is the largest node.
    """
    sums, mags, evals = [], [], 0
    for level in range(_DE_START, _DE_FINEST + 1):
        if level == _DE_START:
            batches = [table.batch(L) for L in range(level + 1)]
            t = _de_start_nodes(level)
        else:
            batches = [table.batch(level)]
            t = batches[0][0]
        y = np.asarray(kernel(t), dtype=np.complex128)
        start = 0
        for t, jw, _ in batches:
            part = jw * y[..., start:start + t.size]
            part = part.reshape(-1, t.size).sum(axis=0)
            start += t.size
            if not sums:  # level 0: the endpoints first and last
                ends = abs(part[0]) + abs(part[-1])
            sums.append(part.sum())
            mags.append(np.abs(part).sum())
        evals += start
        h = _DE_H0 / 2 ** level
        value = h * sum(sums)
        err = (abs(value - 2.0 * h * sum(sums[:-1])) + ends
               + _DE_ROUNDING * h * sum(mags))
        target = tol * (1.0 + abs(value))
        if err <= target:
            return QuadratureResult(complex(value), float(err), evals,
                                    float(_de_batch(0)[0][-1]))
    raise ValueError(
        "quad: double-exponential rule at its finest step h = 1/%d "
        "(%d nodes) estimates error %.3e (target %.3e = tol %.3e "
        "(1 + |value|))" % (round(1.0 / h), evals, err, target, tol))
