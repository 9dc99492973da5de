"""Truncated power series in t with polynomial lambda coefficients.

Series live in Q[lambda][[t]] truncated at a stated t-precision; exponents
are checked nonnegative on construction, so membership in the power-series
ring is explicit.  Coefficients are ints, or the Fractions they were given:
each goes through operator.index unless it is a Fraction, so a float or a
string raises TypeError, and sums start from 0.  The two order queries
mirror the two specializations used by deformation witnesses: the t-order
for generic lambda (lambda kept symbolic) and the t-order at lambda = 0.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Mapping

from .lattice import _Record, _set

__all__ = ["TruncatedSeries"]


class TruncatedSeries(_Record):
    """A power series in (t, lambda), exact up to a t-degree cutoff.

    Terms with t-degree >= t_precision are discarded; everything below the
    cutoff is exact.  lambda-degrees are never truncated (all constructors
    and products of polynomial inputs stay polynomial in lambda).
    """

    __slots__ = ("terms", "t_precision")

    def __init__(self, terms: Mapping[tuple[int, int], Fraction | int], t_precision: int):
        t_precision = index(t_precision)
        if t_precision <= 0:
            raise ValueError("t_precision must be positive")
        clean: dict[tuple[int, int], Fraction | int] = {}
        for (td, ld), coeff in terms.items():
            td, ld = index(td), index(ld)
            if td < 0 or ld < 0:
                raise ValueError("negative exponent: not a power series")
            c = coeff if isinstance(coeff, Fraction) else index(coeff)
            if c == 0 or td >= t_precision:
                continue
            clean[(td, ld)] = clean.get((td, ld), 0) + c
        _set(self, "terms", {k: v for k, v in sorted(clean.items()) if v != 0})
        _set(self, "t_precision", t_precision)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, t_precision: int) -> "TruncatedSeries":
        return cls({}, t_precision)

    @classmethod
    def monomial(
        cls, t_deg: int, lam_deg: int = 0, coeff: Fraction | int = 1, *, t_precision: int
    ) -> "TruncatedSeries":
        return cls({(t_deg, lam_deg): coeff}, t_precision)

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "TruncatedSeries") -> None:
        if self.t_precision != other.t_precision:
            raise ValueError("t_precision mismatch")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged.get(key, 0) + c
        return TruncatedSeries(merged, self.t_precision)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries({k: -c for k, c in self.terms.items()}, self.t_precision)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        out: dict[tuple[int, int], Fraction | int] = {}
        for (t1, l1), c1 in self.terms.items():
            for (t2, l2), c2 in other.terms.items():
                td = t1 + t2
                if td >= self.t_precision:
                    continue
                key = (td, l1 + l2)
                out[key] = out.get(key, 0) + c1 * c2
        return TruncatedSeries(out, self.t_precision)

    def __pow__(self, k: int) -> "TruncatedSeries":
        k = index(k)
        if k < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = TruncatedSeries.monomial(0, 0, 1, t_precision=self.t_precision)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def t_order_generic(self) -> int | None:
        """Least t-degree with a nonzero lambda-polynomial coefficient.

        None means: no nonzero term below the precision cutoff.
        """
        if not self.terms:
            return None
        return min(td for td, _ in self.terms)

    def t_order_at_zero(self) -> int | None:
        """Least t-degree whose coefficient survives setting lambda = 0."""
        degrees = [td for (td, ld) in self.terms if ld == 0]
        return min(degrees) if degrees else None

    def vanishes_at_zero(self) -> bool:
        """True when every term carries a positive power of lambda."""
        return all(ld > 0 for (_, ld) in self.terms)

    # -- identity ---------------------------------------------------------------

    def __hash__(self) -> int:
        # terms is a dict, which does not hash; the constructor sorts it
        return hash((tuple(self.terms.items()), self.t_precision))

    def __repr__(self) -> str:
        if not self.terms:
            body = "0"
        else:
            parts = []
            for (td, ld), c in sorted(self.terms.items()):
                factors = [] if c == 1 and (td or ld) else [str(c)]
                if td:
                    factors.append(f"t^{td}" if td > 1 else "t")
                if ld:
                    factors.append(f"L^{ld}" if ld > 1 else "L")
                parts.append("*".join(factors) or "1")
            body = " + ".join(parts)
        return f"<{body} + O(t^{self.t_precision})>"
