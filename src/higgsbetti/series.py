"""Exact arithmetic kernel: polynomials, truncated power series in t, and
bivariate series in (x, t) used for coefficient extraction.

Every coefficient is exact: a Python ``int`` when it is integral and a
``fractions.Fraction`` only when it is not, never a ``float``; nothing is
ever rounded.  Betti series are integral, so the hot paths run on plain
integers.  A :class:`TruncSeries` carries an explicit truncation order N and
exactly the coefficients of t^0..t^N.  Binary operations align to the smaller of the two
orders, so a coefficient is never reported unless it is exactly determined.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence, TypeVar, Union

Scalar = Union[int, Fraction]
_Ring = TypeVar("_Ring", "Poly", "TruncSeries")

__all__ = [
    "BiSeries",
    "Poly",
    "TruncSeries",
    "XOrderExceededError",
    "ZeroConstantTermError",
    "binomial",
    "expand_rational",
    "first_non_integer",
]


class ZeroConstantTermError(ZeroDivisionError):
    """Inversion of a series whose constant term vanishes."""


class XOrderExceededError(IndexError):
    """An x-coefficient beyond the stored truncation was requested.

    The caller must rebuild the bivariate series with a larger x-order; the
    missing coefficient is not guessable from the stored data.
    """


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _exact(c: Scalar) -> Scalar:
    """``c`` as an ``int`` when integral, else as a ``Fraction``."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _exact_all(cs: Iterable[Scalar]) -> list[Scalar]:
    cs = list(cs)
    if operator.countOf(map(type, cs), int) == len(cs):  # the common case, one scan in C
        return cs
    return [c if type(c) is int else _exact(c) for c in cs]


def _div(x: Scalar, d: Scalar) -> Scalar:
    """Exact quotient x / d, an ``int`` whenever it is integral."""
    if type(x) is int and type(d) is int:
        q, r = divmod(x, d)
        return Fraction(x, d) if r else q
    return _exact(x / d)


def _div_all(cs: Sequence[Scalar], d: Scalar) -> list[Scalar]:
    """:func:`_div` of each of ``cs`` by ``d``; in one pass in C when every
    one is an ``int`` multiple of an ``int`` ``d``, the common case."""
    if type(d) is int and operator.countOf(map(type, cs), int) == len(cs):
        if not any(map(d.__rmod__, cs)):
            return list(map(d.__rfloordiv__, cs))
    return [_div(c, d) for c in cs]


def first_non_integer(series: TruncSeries, *, nonnegative: bool) -> int | None:
    """Smallest k whose t^k coefficient is not an integer or, when
    ``nonnegative``, is negative; ``None`` if every coefficient passes.

    An integral ``Fraction`` counts as an integer.
    """
    cs = series.coeffs
    # the common case, all ``int`` and in range, in two scans in C
    if operator.countOf(map(type, cs), int) == len(cs) and not (nonnegative and min(cs) < 0):
        return None
    for k, c in enumerate(cs):
        if c.denominator != 1 or (nonnegative and c < 0):
            return k
    return None


def _convolve(a: Sequence[Scalar], b: Sequence[Scalar], n: int) -> list[Scalar]:
    """Coefficients t^0..t^n of the product of two coefficient sequences.

    Only nonzero pairs are visited: the series here are often sparse
    (even-only, shifted, or polynomials padded with zeros).
    """
    b_terms = [(j, bj) for j, bj in enumerate(b[: n + 1]) if bj]
    out: list[Scalar] = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai:
            room = n - i
            for j, bj in b_terms:
                if j > room:
                    break
                out[i + j] += ai * bj
    return out


def _power(base: _Ring, k: int, one: _Ring) -> _Ring:
    """``base ** k`` by square-and-multiply, starting from the unit ``one``."""
    if k < 0:
        raise ValueError("powers must be nonnegative")
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def _fmt(c: Scalar) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class Poly:
    """Polynomial in t with exact coefficients (``int`` or ``Fraction``).

    Trailing zero coefficients are trimmed on construction; the zero
    polynomial keeps an empty coefficient tuple and its degree is ``None``
    (a distinguished sentinel, never -1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = list(coeffs)
        if operator.countOf(map(type, cs), int) != len(cs):  # all ``int`` is the common case
            cs = [c if type(c) is int else _exact(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Scalar, ...] = tuple(cs)

    @classmethod
    def one(cls) -> Poly:
        return cls([1])

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1) -> Poly:
        """The polynomial c * t^k."""
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls([0] * k + [c])

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def constant_term(self) -> Scalar:
        return self.coeffs[0] if self.coeffs else 0

    def as_series(self, order: int) -> TruncSeries:
        """Reinterpret as a truncated series.

        Exact for every order: coefficients of a polynomial above its degree
        are genuinely zero.
        """
        return TruncSeries(self.coeffs[: order + 1], order)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __add__(self, other: Poly | Scalar) -> Poly:
        # own type first: ``Fraction``'s isinstance check is a Python-level call
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly(a)

    __radd__ = __add__

    def __sub__(self, other: Poly | Scalar) -> Poly:
        return self + (-other if isinstance(other, Poly) else -_exact(other))

    def __rsub__(self, other: Scalar) -> Poly:
        return (-self) + other

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if isinstance(other, Poly):
            n = len(self.coeffs) + len(other.coeffs) - 2
            return Poly(_convolve(self.coeffs, other.coeffs, n))
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Poly:
        return _power(self, k, Poly.one())

    def shift(self, m: int) -> Poly:
        """Multiply by t^m."""
        if m < 0:
            raise ValueError("shift must be nonnegative")
        return Poly([0] * m + list(self.coeffs))

    def __repr__(self) -> str:
        return f"Poly([{', '.join(_fmt(c) for c in self.coeffs)}])"


class TruncSeries:
    """Power series in t truncated at an explicit order.

    Stores exactly ``order + 1`` coefficients (indices 0..order).  Immutable;
    all operations return fresh instances and are safe to share across
    threads.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = (), order: int | None = None) -> None:
        cs = _exact_all(coeffs)
        if order is None:
            order = max(len(cs) - 1, 0)
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(cs) < order + 1:
            cs.extend([0] * (order + 1 - len(cs)))
        else:
            del cs[order + 1 :]
        self.order: int = order
        self.coeffs: tuple[Scalar, ...] = tuple(cs)

    @classmethod
    def _of(cls, cs: Iterable[Scalar], order: int) -> TruncSeries:
        # trusted construction: exactly order + 1 coefficients, already exact
        series = object.__new__(cls)
        series.order = order
        series.coeffs = tuple(cs)
        return series

    @classmethod
    def zero(cls, order: int) -> TruncSeries:
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> TruncSeries:
        return cls((1,), order)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __getitem__(self, k: int) -> Scalar:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient t^{k} is outside truncation order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def truncated(self, order: int) -> TruncSeries:
        """Drop coefficients above ``order`` (which must not exceed self.order)."""
        if order > self.order:
            raise ValueError("cannot raise the truncation order of a series")
        if order == self.order:
            return self
        return TruncSeries._of(self.coeffs[: order + 1], order)

    def __neg__(self) -> TruncSeries:
        return TruncSeries._of([-c for c in self.coeffs], self.order)

    def __add__(self, other: TruncSeries | Scalar) -> TruncSeries:
        # own type first: ``Fraction``'s isinstance check is a Python-level call
        if isinstance(other, TruncSeries):
            n = min(self.order, other.order)
            cs = _exact_all(map(operator.add, self.coeffs[: n + 1], other.coeffs))
            return TruncSeries._of(cs, n)
        if isinstance(other, (int, Fraction)):
            cs = list(self.coeffs)
            cs[0] = _exact(cs[0] + other)
            return TruncSeries._of(cs, self.order)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: TruncSeries | Scalar) -> TruncSeries:
        return self + (-other if isinstance(other, TruncSeries) else -_exact(other))

    def __rsub__(self, other: Scalar) -> TruncSeries:
        return (-self) + other

    def __mul__(self, other: TruncSeries | Scalar) -> TruncSeries:
        if isinstance(other, TruncSeries):
            n = min(self.order, other.order)
            return TruncSeries._of(_exact_all(_convolve(self.coeffs, other.coeffs, n)), n)
        if isinstance(other, (int, Fraction)):
            return TruncSeries._of(_exact_all(c * other for c in self.coeffs), self.order)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> TruncSeries:
        return _power(self, k, TruncSeries.one(self.order))

    def inv(self) -> TruncSeries:
        """Multiplicative inverse: ``self * self.inv() == 1`` up to the order.

        Forward recurrence c_k = (delta_{k0} - sum_{j=1..k} a_j c_{k-j}) / a_0,
        over every j; the dense reference for :func:`expand_rational`.
        """
        a = self.coeffs
        if a[0] == 0:
            raise ZeroConstantTermError("cannot invert a series with zero constant term")
        out = [_div(1, a[0])]
        for k in range(1, self.order + 1):
            acc: Scalar = 0
            for j in range(1, k + 1):
                if a[j]:
                    acc += a[j] * out[k - j]
            out.append(_div(-acc, a[0]))
        return TruncSeries._of(out, self.order)

    def shift(self, m: int) -> TruncSeries:
        """Multiply by t^m, keeping the truncation order."""
        if m < 0:
            raise ValueError("shift must be nonnegative")
        if m == 0:
            return self
        keep = max(self.order + 1 - m, 0)
        return TruncSeries._of([0] * min(m, self.order + 1) + list(self.coeffs[:keep]), self.order)

    def __repr__(self) -> str:
        return f"TruncSeries([{', '.join(_fmt(c) for c in self.coeffs)}], order={self.order})"


def expand_rational(num: Poly, den: Poly, order: int) -> TruncSeries:
    """Taylor expansion of num/den at t = 0, exact up to ``order``.

    The denominator must not vanish at t = 0.  With q = den / den_0, whose
    constant term is 1, num/den = (num / q) / den_0: the sparse forward
    recurrence

        c_k = num_k - sum_{j>=1, q_j != 0} q_j c_{k-j},

    then one division of each c_k by den_0.  O(order * nnz(den))
    operations; the denominators here are short products of (1 - t^k)
    factors, so this is linear in the order.  Where den_0 divides every
    coefficient of den (1, or the 4 and 16 of the residue pieces and the
    closed lemma), q is integral and the recurrence stays on integers.
    """
    d0 = den.constant_term
    if d0 == 0:
        raise ZeroConstantTermError("denominator vanishes at t = 0")
    terms = [(j, qj) for j, qj in enumerate(_div_all(den.coeffs[1 : order + 1], d0), 1) if qj]
    a = num.coeffs
    out: list[Scalar] = []
    for k in range(order + 1):
        acc = a[k] if k < len(a) else 0
        for j, qj in terms:
            if j > k:
                break
            acc -= qj * out[k - j]
        out.append(acc if type(acc) is int else _exact(acc))
    if d0 != 1:
        out = _div_all(out, d0)
    return TruncSeries._of(out, order)


class BiSeries:
    """Series in an auxiliary variable x whose coefficients are series in t.

    The x^m coefficient sits at index m; all inner series share one t-order
    (the constructor aligns to the smallest).  Its one reader is the dense
    Macdonald oracle :func:`higgsbetti.spaces.sym_generating`.
    """

    __slots__ = ("x_order", "t_order", "coeffs")

    def __init__(self, coeffs: Sequence[TruncSeries]) -> None:
        if not coeffs:
            raise ValueError("a BiSeries needs at least the x^0 coefficient")
        t_order = min(c.order for c in coeffs)
        self.coeffs: tuple[TruncSeries, ...] = tuple(c.truncated(t_order) for c in coeffs)
        self.x_order: int = len(coeffs) - 1
        self.t_order: int = t_order

    @classmethod
    def of_polys(cls, polys: Sequence[Poly | Scalar], x_order: int, t_order: int) -> BiSeries:
        """Exact embedding of sum_m polys[m](t) * x^m, zero-padded in x.

        Entries beyond ``x_order`` are discarded (x-truncation); missing
        entries are zero.
        """
        rows = []
        for m in range(x_order + 1):
            p = polys[m] if m < len(polys) else Poly()
            if not isinstance(p, Poly):
                p = Poly([p])
            rows.append(p.as_series(t_order))
        return cls(rows)

    @classmethod
    def one(cls, x_order: int, t_order: int) -> BiSeries:
        return cls.of_polys([Poly.one()], x_order, t_order)

    def x_coeff(self, m: int) -> TruncSeries:
        """The t-series multiplying x^m; loud failure past the truncation."""
        if m < 0:
            raise ValueError("x-power must be nonnegative")
        if m > self.x_order:
            raise XOrderExceededError(
                f"x^{m} requested but the series is truncated at x^{self.x_order}"
            )
        return self.coeffs[m]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiSeries):
            return (
                self.x_order == other.x_order
                and self.t_order == other.t_order
                and self.coeffs == other.coeffs
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x_order, self.t_order, self.coeffs))

    def __mul__(self, other: BiSeries) -> BiSeries:
        if not isinstance(other, BiSeries):
            return NotImplemented
        n = min(self.x_order, other.x_order)
        t_ord = min(self.t_order, other.t_order)
        out = [TruncSeries.zero(t_ord) for _ in range(n + 1)]
        for i in range(n + 1):
            a = self.coeffs[i]
            if a.is_zero:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return BiSeries(out)

    def inv(self) -> BiSeries:
        """Multiplicative inverse in x; the x^0 coefficient must itself be
        invertible as a t-series."""
        c0 = self.coeffs[0].inv()
        out = [c0]
        for m in range(1, self.x_order + 1):
            acc = TruncSeries.zero(self.t_order)
            for j in range(1, m + 1):
                a = self.coeffs[j]
                if not a.is_zero:
                    acc = acc + a * out[m - j]
            out.append((-acc) * c0)
        return BiSeries(out)

    def __repr__(self) -> str:
        return f"BiSeries(x_order={self.x_order}, t_order={self.t_order})"
