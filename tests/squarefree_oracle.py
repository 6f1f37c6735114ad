"""Test-only oracle for ``curves.is_squarefree``: Euclid over ``Fraction``.

``is_squarefree`` decides over the integers with a primitive pseudo-remainder
sequence; this oracle keeps the direct route, the degree of gcd(f, f') by
Euclid's algorithm on rational coefficients, normalised at every step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = _trim(list(a))
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i in range(len(b)):
            a[shift + i] -= f * b[i]
        a = _trim(a)
    return a


def oracle_is_squarefree(coeffs: Sequence) -> bool:
    """gcd(f, f') over Q is a nonzero constant; False below degree 1."""
    f = _trim([Fraction(c) for c in coeffs])
    if len(f) < 2:
        return False
    u, v = f, _trim([i * f[i] for i in range(1, len(f))])
    while v:
        u, v = v, _mod(u, v)
    return len(u) == 1
