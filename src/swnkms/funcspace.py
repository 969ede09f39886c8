"""Symbolic functions of one real variable: finite sums of c * x^n * e^{i t x}.

This span is closed under pointwise product, translation and complex
conjugation, which is exactly what the commutation relations of the operator
algebra consume.  Instances are immutable and hashable; all operations return
new objects.  ``mul_terms`` and ``shift_terms`` are the raw kernels behind
``*`` and ``shift``: they return unmerged terms, for callers that merge once
at the end or never.
"""

from __future__ import annotations

import cmath
from math import comb

import numpy as np


def _canonical(terms) -> tuple[tuple[int, float, complex], ...]:
    acc: dict[tuple[int, float], complex] = {}
    for n, t, c in terms:
        n = int(n)
        if n < 0:
            raise ValueError(f"power must be nonnegative, got {n}")
        t = float(t) + 0.0  # normalize -0.0
        key = (n, t)
        acc[key] = acc.get(key, 0j) + complex(c)
    kept = [(n, t, c) for (n, t), c in acc.items() if c != 0]
    kept.sort(key=lambda item: (item[0], item[1]))
    return tuple(kept)


def mul_terms(left, right) -> list[tuple[int, float, complex]]:
    """Raw terms of the pointwise product: every pair of terms, nothing merged."""
    return [(n1 + n2, t1 + t2, c1 * c2) for n1, t1, c1 in left for n2, t2, c2 in right]


def shift_terms(terms, a: float):
    """Raw terms of the translate T_a, nothing merged; ``terms`` itself when a is 0.

    Powers expand binomially, exponentials pick up the phase e^{-i t a}.
    """
    if a == 0.0:
        return terms
    out = []
    for n, t, c in terms:
        phase = c * cmath.exp(-1j * t * a)
        for k in range(n + 1):
            out.append((k, t, phase * comb(n, k) * (-a) ** (n - k)))
    return out


class FunctionExpr:
    """A finite sum sum_k c_k * x^{n_k} * e^{i t_k x}.

    Terms are kept canonical: sorted by (power, frequency), duplicate keys
    merged, exact zeros dropped.  A coefficient is never dropped for being
    small next to another: closed forms mix coefficients many orders apart.
    Frequencies are compared bit-exactly; translation never perturbs them.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms: tuple[tuple[int, float, complex], ...] = _canonical(terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "FunctionExpr":
        return cls()

    @classmethod
    def constant(cls, c) -> "FunctionExpr":
        return cls([(0, 0.0, c)])

    @classmethod
    def x_power(cls, n: int = 1, coeff=1.0) -> "FunctionExpr":
        return cls([(n, 0.0, coeff)])

    @classmethod
    def exponential(cls, t: float, coeff=1.0) -> "FunctionExpr":
        """e^{i t x}, optionally scaled."""
        return cls([(0, float(t), coeff)])

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Largest power of x present (-1 for the zero function)."""
        return self.terms[-1][0] if self.terms else -1  # terms are sorted by power

    def coeff_l1(self) -> float:
        return sum(abs(c) for _, _, c in self.terms)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FunctionExpr(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return FunctionExpr([(n, t, -c) for n, t, c in self.terms])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return FunctionExpr([(n, t, c * other) for n, t, c in self.terms])
        if isinstance(other, FunctionExpr):
            return FunctionExpr(mul_terms(self.terms, other.terms))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not representable")
        out = FunctionExpr.constant(1.0)
        for _ in range(k):
            out = out * self
        return out

    def shift(self, a: float) -> "FunctionExpr":
        """The translate T_a: (T_a F)(x) = F(x - a), by ``shift_terms``."""
        a = float(a)
        if a == 0.0:
            return self
        return FunctionExpr(shift_terms(self.terms, a))

    def conjugate(self) -> "FunctionExpr":
        """Pointwise complex conjugate; an involution on the span."""
        return FunctionExpr([(n, -t, c.conjugate()) for n, t, c in self.terms])

    # -- evaluation --------------------------------------------------------

    def __call__(self, x0: float) -> complex:
        x0 = float(x0)
        return sum(
            (c * x0**n * cmath.exp(1j * t * x0) for n, t, c in self.terms), 0j
        )

    def evaluate_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on a real grid.

        The polynomial sum c x^n of each distinct frequency t is formed first,
        so e^{i t x} is evaluated once per nonzero t and never for t = 0.
        """
        xs = np.asarray(xs, dtype=float)
        polys: dict[float, np.ndarray] = {}
        for n, t, c in self.terms:
            term = c * xs**n
            polys[t] = polys[t] + term if t in polys else term
        out = np.zeros(xs.shape, dtype=complex)
        for t, poly in polys.items():
            out += poly if t == 0.0 else poly * np.exp(1j * t * xs)
        return out

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FunctionExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def isclose(self, other: "FunctionExpr", tol: float = 1e-12) -> bool:
        """Coefficient-wise comparison relative to the larger coefficient scale."""
        scale = max(self.coeff_l1(), other.coeff_l1(), 1.0)
        diff = self - other
        return all(abs(c) <= tol * scale for _, _, c in diff.terms)

    def __repr__(self):
        from .grammar import format_function

        return f"FunctionExpr({format_function(self)!r})"


def _coerce(value):
    if isinstance(value, FunctionExpr):
        return value
    if isinstance(value, (int, float, complex)):
        return FunctionExpr.constant(value)
    return NotImplemented


#: The function F(x) = 1.
ONE = FunctionExpr.constant(1.0)

#: The coordinate function F(x) = x (the Cartan generator's symbol).
X_VAR = FunctionExpr.x_power(1)
