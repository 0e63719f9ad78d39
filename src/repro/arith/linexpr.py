"""Exact linear expressions over named unknowns.

A :class:`LinExpr` is an immutable mapping ``unknown -> coefficient`` plus a
constant term.  Unknowns are arbitrary hashable objects — the verifier uses
numeric artifact variables and navigation expressions as unknowns.

Coefficients and constants are *fraction-free where possible*: a value is a
plain ``int`` whenever it is integral and a :class:`Fraction` (denominator
> 1) only otherwise, never a float.  Ints hash and compare at C speed, and
``hash(3) == hash(Fraction(3))`` with ``3 == Fraction(3)``, so the two
representations of one value stay interchangeable as dict keys.  Every
division goes through :func:`quotient`, so ``int / int`` never yields a
float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping

Unknown = Hashable
Coefficient = int | float | Fraction
#: The stored form of a coefficient: int when integral, else Fraction.
Rational = int | Fraction


def demote(value: Rational) -> Rational:
    """An integral :class:`Fraction` as ``int``; anything else unchanged."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def quotient(numerator: Rational, denominator: Rational) -> Rational:
    """Exact ``numerator / denominator`` in stored form (never a float)."""
    return demote(Fraction(numerator, denominator))


def _coerce(value: Coefficient) -> Rational:
    if isinstance(value, Fraction):
        return demote(value)
    if isinstance(value, bool):  # guard against accidental booleans
        raise TypeError("boolean is not a coefficient")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return demote(Fraction(value).limit_denominator(10**12))
    raise TypeError(f"cannot use {value!r} as a coefficient")


class LinExpr:
    """``c0 + Σ ci·ui`` with rational coefficients, immutable and hashable.

    Invariant: every stored coefficient and the constant are in
    :data:`Rational` stored form (see the module docstring)."""

    __slots__ = ("_coeffs", "_constant", "_hash", "_unknowns")

    def __init__(
        self,
        coeffs: Mapping[Unknown, Coefficient] | None = None,
        constant: Coefficient = 0,
    ):
        items = {}
        if coeffs:
            for unknown, coeff in coeffs.items():
                frac = _coerce(coeff)
                if frac != 0:
                    items[unknown] = frac
        self._coeffs: dict[Unknown, Rational] = items
        self._constant = _coerce(constant)
        self._hash: int | None = None
        self._unknowns: frozenset[Unknown] | None = None

    @classmethod
    def _raw(cls, coeffs: dict[Unknown, Rational], constant: Rational) -> "LinExpr":
        """Trusted constructor for the hot algebraic paths: ``coeffs`` must
        already be a private dict of non-zero stored-form values and
        ``constant`` in stored form.  Skips coercion and zero-filtering —
        the arithmetic below guarantees both invariants."""
        expr = cls.__new__(cls)
        expr._coeffs = coeffs
        expr._constant = constant
        expr._hash = None
        expr._unknowns = None
        return expr

    # ------------------------------------------------------------------
    @property
    def constant(self) -> Rational:
        return self._constant

    @property
    def coeffs(self) -> Mapping[Unknown, Rational]:
        return dict(self._coeffs)

    def coefficient(self, unknown: Unknown) -> Rational:
        return self._coeffs.get(unknown, 0)

    @property
    def unknowns(self) -> frozenset[Unknown]:
        if self._unknowns is None:
            self._unknowns = frozenset(self._coeffs)
        return self._unknowns

    @property
    def is_constant(self) -> bool:
        return not self._coeffs

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def __add__(self, other: "LinExpr | Coefficient") -> "LinExpr":
        other = to_linexpr(other)
        coeffs = dict(self._coeffs)
        for unknown, coeff in other._coeffs.items():
            merged = coeffs.get(unknown)
            merged = coeff if merged is None else demote(merged + coeff)
            if merged == 0:
                coeffs.pop(unknown, None)
            else:
                coeffs[unknown] = merged
        return LinExpr._raw(coeffs, demote(self._constant + other._constant))

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr._raw(
            {u: -c for u, c in self._coeffs.items()}, -self._constant
        )

    def __sub__(self, other: "LinExpr | Coefficient") -> "LinExpr":
        return self + (-to_linexpr(other))

    def __rsub__(self, other: "LinExpr | Coefficient") -> "LinExpr":
        return to_linexpr(other) + (-self)

    def __mul__(self, scalar: Coefficient) -> "LinExpr":
        factor = _coerce(scalar)
        if factor == 0:
            return LinExpr._raw({}, 0)
        if factor == 1:
            return self
        return LinExpr._raw(
            {u: demote(c * factor) for u, c in self._coeffs.items()},
            demote(self._constant * factor),
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: Coefficient) -> "LinExpr":
        return self * quotient(1, _coerce(scalar))

    def substitute(self, assignment: Mapping[Unknown, "LinExpr | Coefficient"]) -> "LinExpr":
        """Replace unknowns by expressions (or constants)."""
        result = LinExpr({}, self._constant)
        for unknown, coeff in self._coeffs.items():
            if unknown in assignment:
                result = result + to_linexpr(assignment[unknown]) * coeff
            else:
                result = result + LinExpr({unknown: coeff})
        return result

    def rename(self, mapping: Mapping[Unknown, Unknown]) -> "LinExpr":
        """Rename unknowns; unknowns not in the mapping are kept."""
        coeffs: dict[Unknown, Rational] = {}
        for unknown, coeff in self._coeffs.items():
            target = mapping.get(unknown, unknown)
            merged = coeffs.get(target)
            merged = coeff if merged is None else demote(merged + coeff)
            if merged == 0:
                coeffs.pop(target, None)
            else:
                coeffs[target] = merged
        return LinExpr._raw(coeffs, self._constant)

    def evaluate(self, valuation: Mapping[Unknown, Coefficient]) -> Rational:
        total = self._constant
        for unknown, coeff in self._coeffs.items():
            total += coeff * _coerce(valuation[unknown])
        return demote(total)

    def normalized(self) -> "LinExpr":
        """Scale so the leading coefficient (in sorted unknown order) is 1;
        used for canonical hashing of constraints up to positive scaling."""
        if not self._coeffs:
            return self
        lead = sorted(self._coeffs, key=repr)[0]
        return self / self._coeffs[lead]

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self._constant == other._constant and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self._constant, frozenset(self._coeffs.items()))
            )
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for unknown in sorted(self._coeffs, key=repr):
            coeff = self._coeffs[unknown]
            parts.append(f"{coeff}*{unknown}" if coeff != 1 else f"{unknown}")
        if self._constant != 0 or not parts:
            parts.append(str(self._constant))
        return " + ".join(str(p) for p in parts)


def to_linexpr(value: "LinExpr | Coefficient") -> LinExpr:
    if isinstance(value, LinExpr):
        return value
    return LinExpr({}, value)


def var(unknown: Unknown) -> LinExpr:
    """The expression consisting of a single unknown."""
    return LinExpr({unknown: 1})


def const(value: Coefficient) -> LinExpr:
    return LinExpr({}, value)


def linear_combination(terms: Iterable[tuple[Coefficient, Unknown]], constant: Coefficient = 0) -> LinExpr:
    coeffs: dict[Unknown, Rational] = {}
    for coeff, unknown in terms:
        coeffs[unknown] = coeffs.get(unknown, 0) + _coerce(coeff)
    return LinExpr(coeffs, constant)
