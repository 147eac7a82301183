"""Fixed reference work that gauges the host's speed during a run.

The benchmark's hosts are shared, and the same interpreter doing the same
exact arithmetic runs up to 1.8x slower for a minute or more at a time, with
the neighbours, not with the code.  Every sweep repetition therefore times
this unit of work between its tasks, and the harness scales its times by how
fast the unit ran in that run.  The unit uses the standard library only, so
no change to ``capelli`` can move it, and does the kind of work the sweeps do: ``Fraction`` arithmetic, polynomial products and Euclidean
gcds over Q, and a dict keyed by tuples.
"""

from __future__ import annotations

from fractions import Fraction

# Fast-state time of one unit on the host the benchmark was written on (a
# 2-CPU shared x86_64 VM, Python 3.11).  Scaled times are in seconds of a host
# on which the unit takes this long.
NOMINAL_UNIT_S = 0.0024


def _strip(a: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = _strip(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        for i, y in enumerate(b):
            a[i + k] -= c * y
        a = _strip(a[:-1])
    return a


def _gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _strip(a), _strip(b)
    while b:
        a, b = b, _rem(a, b)
    return a


def unit() -> dict:
    """One unit of reference work; returns its result."""
    acc = {}
    for s in range(1, 9):
        f = [Fraction(s, k + 1) - k for k in range(6)]
        g = [Fraction(k - s, 2 * k + 3) for k in range(5)]
        h = [Fraction(1), Fraction(s, 3), Fraction(-2, s)]
        d = _gcd(_mul(f, h), _mul(g, h))
        acc[s, len(d)] = sum(d, Fraction(0))
    return acc
