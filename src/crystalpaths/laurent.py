"""Sparse Laurent polynomials in one variable q with exact integer arithmetic."""

from __future__ import annotations

from collections.abc import Iterable, Mapping


class LaurentPoly:
    """Integer Laurent polynomial in q, stored as {exponent: nonzero coefficient}.

    Exponents may be negative.  Coefficients and exponents are Python ints,
    so all arithmetic is exact and overflow-free.  Instances are immutable;
    every operation returns a new polynomial.  Zero coefficients are never
    stored, and equality is coefficient-wise.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        data: dict[int, int] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            for exp, c in items:
                if not isinstance(exp, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be integers")
                total = data.get(exp, 0) + c
                if total:
                    data[exp] = total
                elif exp in data:
                    del data[exp]
        object.__setattr__(self, "_coeffs", data)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return LaurentPoly, (self.pairs(),)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def q_power(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        """The monomial coeff * q**exp."""
        return cls({exp: coeff})

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(exponent, coefficient) pairs sorted by exponent."""
        return tuple(sorted(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    @staticmethod
    def _coerce(other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            total = data.get(exp, 0) + c
            if total:
                data[exp] = total
            else:
                del data[exp]
        result = LaurentPoly()
        object.__setattr__(result, "_coeffs", data)
        return result

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                exp = e1 + e2
                total = data.get(exp, 0) + c1 * c2
                if total:
                    data[exp] = total
                elif exp in data:
                    del data[exp]
        result = LaurentPoly()
        object.__setattr__(result, "_coeffs", data)
        return result

    def __call__(self, value: int) -> int:
        """Evaluate at an integer point; q=1 gives the coefficient sum."""
        if value == 0:
            raise ZeroDivisionError("cannot evaluate a Laurent polynomial at 0")
        total = 0
        for exp, c in self._coeffs.items():
            if exp >= 0:
                total += c * value**exp
            else:
                num, rem = divmod(c, value ** (-exp))
                if rem:
                    raise ValueError("evaluation at %d is not integral" % value)
                total += num
        return total

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        if not self._coeffs:
            return hash(0)
        if set(self._coeffs) == {0}:
            return hash(self._coeffs[0])
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self):
        return "LaurentPoly(%r)" % (dict(self.pairs()),)
