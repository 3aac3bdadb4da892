"""Arithmetic in F_p and F_p[u]/(u^2+1) for odd primes p.

The field decides how its elements are stored, once: FieldSpec.dtype is
float64 for F_p and complex128 for F_p[u]/(u^2+1), and every array the
package builds holds elements in that dtype.  Scalars follow the same
rule: a prime-field element is a Python float, an extension element a
Python complex, so a scalar can be stored into a field array without a
cast.

Components are canonically reduced into {0, ..., p-1}.  The extension
element a0 + a1*u is the complex number a0 + a1j, and complex
multiplication computes (a0*b0 - a1*b1) + (a0*b1 + a1*b0)j, which is
exactly the product in F_p[u]/(u^2+1) before reduction.  Components of
any intermediate value in this package stay far below 2**53, so float64
components are exact, and these arrays give exact field arithmetic and
fast BLAS contractions at the same time.

FieldSpec.array is the one place where input of another dtype is cast:
it refuses a nonzero u component headed for a prime field.

The quadratic extension is only offered when u^2 = -1 is irreducible,
i.e. p = 3 (mod 4); for p = 1 (mod 4) the base field already contains a
square root of -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FieldError(ValueError):
    pass


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """An odd prime field F_p, or its quadratic extension F_p[u]/(u^2+1)."""

    p: int
    ext: bool = False

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise FieldError(f"p must be an odd prime, got {self.p}")
        if self.ext and self.p % 4 != 3:
            raise FieldError(
                f"-1 is already a square mod {self.p}; the extension by "
                "sqrt(-1) exists only for p = 3 (mod 4)")

    @property
    def order(self) -> int:
        return self.p * self.p if self.ext else self.p

    def __str__(self):
        return f"F{self.p}[u]" if self.ext else f"F{self.p}"

    # -- element type ----------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """The array dtype holding elements of this field."""
        return np.dtype(np.complex128 if self.ext else np.float64)

    def array(self, a) -> np.ndarray:
        """a as an array of this field's dtype, not yet reduced mod p.

        Raises FieldError when a nonzero u component (mod p) would reach
        a prime field."""
        a = np.asarray(a)
        if a.dtype == self.dtype:
            return a
        if not self.ext and a.dtype.kind == "c":
            if np.any(np.round(a.imag) % self.p):
                raise FieldError(f"{self} has no u component")
            a = a.real
        return a.astype(self.dtype)

    # -- scalar construction and canonical form --------------------------

    def scalar(self, a0: int, a1: int = 0) -> float | complex:
        if self.ext:
            return complex(a0 % self.p, a1 % self.p)
        if a1 % self.p:
            raise FieldError(f"{self} has no u component")
        return float(a0 % self.p)

    def reduce(self, x) -> float | complex:
        x = complex(x)
        return self.scalar(round(x.real), round(x.imag))

    @property
    def zero(self) -> float | complex:
        return self.scalar(0)

    @property
    def one(self) -> float | complex:
        return self.scalar(1)

    def elements(self):
        rng = range(self.p)
        if self.ext:
            return (self.scalar(a, b) for a in rng for b in rng)
        return (self.scalar(a) for a in rng)

    # -- arithmetic ------------------------------------------------------

    def add(self, x, y) -> float | complex:
        return self.reduce(complex(x) + complex(y))

    def sub(self, x, y) -> float | complex:
        return self.reduce(complex(x) - complex(y))

    def mul(self, x, y) -> float | complex:
        return self.reduce(complex(x) * complex(y))

    def neg(self, x) -> float | complex:
        return self.reduce(-complex(x))

    def eq(self, x, y) -> bool:
        return self.reduce(x) == self.reduce(y)

    def inv(self, x) -> float | complex:
        """Multiplicative inverse, via (a+bu)^-1 = (a-bu)/(a^2+b^2)."""
        x = self.reduce(x)
        a0, a1 = round(x.real), round(x.imag)
        n = (a0 * a0 + a1 * a1) % self.p
        if n == 0:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        ninv = pow(n, -1, self.p)
        return self.scalar(a0 * ninv, -a1 * ninv)

    def sqrt_minus_one(self) -> float | complex:
        """The canonical square root of -1.

        For p = 1 (mod 4) this is the representative in {1,...,(p-1)/2};
        for the extension it is u itself.  Raises for plain F_p with
        p = 3 (mod 4).
        """
        if self.ext:
            return 1j
        if self.p % 4 != 1:
            raise FieldError(
                f"-1 is not a square in {self}; use the quadratic extension")
        for i in range(1, (self.p - 1) // 2 + 1):
            if (i * i + 1) % self.p == 0:
                return self.scalar(i)
        raise AssertionError("unreachable for prime p = 1 (mod 4)")

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "ext": self.ext}

    @classmethod
    def from_json(cls, obj: dict) -> "FieldSpec":
        return cls(int(obj["p"]), bool(obj.get("ext", False)))

    def scalar_to_json(self, x) -> list:
        x = self.reduce(x)
        if self.ext:
            return [round(x.real), round(x.imag)]
        return [round(x.real)]

    def scalar_from_json(self, obj) -> float | complex:
        if len(obj) == 1:
            return self.scalar(int(obj[0]))
        return self.scalar(int(obj[0]), int(obj[1]))

    def fmt(self, x) -> str:
        x = self.reduce(x)
        a0, a1 = round(x.real), round(x.imag)
        if a1 == 0:
            return str(a0)
        u = "u" if a1 == 1 else f"{a1}u"
        return u if a0 == 0 else f"{a0}+{u}"
