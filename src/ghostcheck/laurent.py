"""Sparse multivariate Laurent polynomials over exact rationals.

A polynomial is a finite map from exponent vectors (integers, possibly
negative) to nonzero rational coefficients, together with an ordered
variable list. Zero coefficients are never stored, so equality is
structural. ``repr`` orders terms graded-lexicographically (total
degree first, then the exponent vector) to keep the messages that quote a
polynomial byte-stable.

The constructor is the one place that merges terms: equal exponent vectors
add up and a zero sum drops out. There is no arithmetic on polynomials; the
functions below rewrite terms and hand them back to the constructor.

Example
-------
>>> p = LaurentPoly(("x", "y"), [((1, 0), 2), ((0, 1), 1), ((1, 0), -2)])
>>> p == LaurentPoly.monomial(("x", "y"), (0, 1))
True
>>> p.coefficient((1, 0))
Fraction(0, 1)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .exact import RatLike, integer, rat


class LaurentVariableMismatch(ValueError):
    """Raised when substitution images do not share one variable list."""


class MissingSubstitutionImage(ValueError):
    """Raised when a substitution map omits a variable of the polynomial."""


TermsLike = Union[
    Mapping[tuple[int, ...], RatLike],
    Iterable[tuple[Sequence[int], RatLike]],
]


class LaurentPoly:
    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: TermsLike = ()):
        vt = tuple(str(v) for v in variables)
        if len(set(vt)) != len(vt):
            raise ValueError(f"duplicate variable names in {vt}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        canon: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in items:
            e = tuple(integer(k) for k in exps)
            if len(e) != len(vt):
                raise ValueError(f"exponent vector {e} does not match variables {vt}")
            q = canon.get(e, Fraction(0)) + rat(coeff)
            if q:
                canon[e] = q
            else:
                canon.pop(e, None)
        object.__setattr__(self, "variables", vt)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def monomial(cls, variables: Sequence[str], exps: Sequence[int], coeff: RatLike = 1) -> "LaurentPoly":
        return cls(variables, {tuple(exps): coeff})

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    __hash__ = None  # mutable-dict storage; hashing is not supported

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"{v}^{k}" if k != 1 else v
                for v, k in zip(self.variables, exps)
                if k != 0
            ]
            if not factors:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append("*".join(factors))
            elif coeff == -1:
                pieces.append("-" + "*".join(factors))
            else:
                pieces.append(f"{coeff}*" + "*".join(factors))
        return " + ".join(pieces).replace("+ -", "- ")


def substitute(poly: LaurentPoly, images: Mapping[str, LaurentPoly]) -> LaurentPoly:
    """Apply a monomial substitution, a ring homomorphism.

    Every variable of ``poly`` must have an image; each image must be a
    single Laurent monomial with nonzero coefficient, and all images must
    share one target variable list. Negative exponents pass through
    monomial inversion, so substitute(p*q) = substitute(p)*substitute(q).
    """
    if not images:
        raise MissingSubstitutionImage("empty substitution map")
    target_vars = next(iter(images.values())).variables
    parsed: dict[str, tuple[tuple[int, ...], Fraction]] = {}
    for name, image in images.items():
        if image.variables != target_vars:
            raise LaurentVariableMismatch("substitution images must share one variable list")
        if len(image.terms) != 1:
            raise ValueError(f"image of {name!r} is not a single monomial: {image!r}")
        ((exps, coeff),) = image.terms.items()
        parsed[name] = (exps, coeff)
    for v in poly.variables:
        if v not in parsed:
            raise MissingSubstitutionImage(f"no image for variable {v!r}")
    width = len(target_vars)
    terms = []
    for exps, coeff in poly.terms.items():
        new_exps = [0] * width
        for v, k in zip(poly.variables, exps):
            if k == 0:
                continue
            img_exps, img_coeff = parsed[v]
            for i in range(width):
                new_exps[i] += img_exps[i] * k
            coeff *= img_coeff**k
        terms.append((new_exps, coeff))
    return LaurentPoly(target_vars, terms)


def restrict_to_axis(poly: LaurentPoly, var: str) -> tuple[LaurentPoly, int]:
    """Leading Laurent coefficient of ``poly`` along the divisor {var = 0}.

    Returns ``(restricted, pole_order)`` where pole_order is
    max(0, -min exponent of var) and ``restricted`` collects the terms whose
    var-exponent equals -pole_order, with ``var`` removed from the variable
    list. In particular, when the polynomial is regular along the axis
    (pole_order 0) the result is the honest restriction, and a polynomial
    that vanishes along the axis restricts to 0.
    """
    idx = poly.variables.index(var)
    rest_vars = poly.variables[:idx] + poly.variables[idx + 1 :]
    if not poly.terms:
        return LaurentPoly(rest_vars), 0
    min_exp = min(e[idx] for e in poly.terms)
    pole_order = max(0, -min_exp)
    kept = {
        (e[:idx] + e[idx + 1 :]): c
        for e, c in poly.terms.items()
        if e[idx] == -pole_order
    }
    return LaurentPoly(rest_vars, kept), pole_order


def normal_form_xyt(poly: LaurentPoly, m: int) -> LaurentPoly:
    """Normal form in k[x,y,t]/(xy - t^m): rewrite xy -> t^m until no term
    carries both x and y.

    The polynomial must have three variables, read positionally as
    (x, y, t), and only nonnegative exponents. The result is the unique
    representative with min(x-exp, y-exp) = 0 in every term.
    """
    if len(poly.variables) != 3:
        raise ValueError(f"expected exactly three variables (x, y, t), got {poly.variables}")
    if m < 1:
        raise ValueError("m must be >= 1")
    terms = []
    for (ex, ey, et), coeff in poly.terms.items():
        if ex < 0 or ey < 0 or et < 0:
            raise ValueError(f"negative exponent in term {(ex, ey, et)}")
        k = min(ex, ey)
        terms.append(((ex - k, ey - k, et + k * m), coeff))
    return LaurentPoly(poly.variables, terms)
