"""The extended enveloping *-algebra as a normal-ordering rewrite system.

Generators are X, Y and the Cartan family N_F (F a FunctionExpr); H is the
element N_x.  The defining rewrite rules are

    Y X   -> X Y - N_x
    N_F X -> X N_{T_{-2}F}
    N_F Y -> Y N_{T_{+2}F}
    N_F N_G -> N_{F G}

so every element has a unique canonical form: a finite sum of monomials
X^m Y^n N_F.  The involution is fixed by X* = -Y, N_F* = N_{F*}; the
one-parameter automorphism group scales X by e^{iz} and Y by e^{-iz}.

``reduce_word`` exposes the raw rewriting engine (used to cross-check the
closed-form product and for confluence experiments with randomized redex
choice); ``AlgebraElement`` multiplication uses the memoized closed-form
reordering of Y^n X^m plus the Cartan shift bookkeeping, which gives the same
canonical forms.  Monomial products are formed on unmerged term lists and
canonicalized once per output monomial; ``weight_zero_rows`` hands the
weight-zero part of a product, unmerged, to the trace evaluator, and
``add_weight_zero_rows`` forms it from plain term tuples, for callers that
hold no elements.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .funcspace import ONE, X_VAR, FunctionExpr, mul_terms, shift_terms

# Shift step of the Cartan commutation: moving N_F left past X translates F
# by +2, matching the module spectrum {lambda + 2p} stepping by one rung.
SHIFT_STEP = 2.0

MonKey = tuple[int, int]


def _canonical_terms(items) -> tuple[tuple[MonKey, FunctionExpr], ...]:
    acc: dict[MonKey, FunctionExpr] = {}
    for (m, n), f in items:
        key = (int(m), int(n))
        if key[0] < 0 or key[1] < 0:
            raise ValueError(f"monomial powers must be nonnegative, got {key}")
        if key in acc:
            acc[key] = acc[key] + f
        else:
            acc[key] = f
    kept = [(key, f) for key, f in acc.items() if not f.is_zero]
    kept.sort(key=lambda item: item[0])
    return tuple(kept)


class AlgebraElement:
    """Finite sum of normal-ordered monomials X^m Y^n N_F."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms: tuple[tuple[MonKey, FunctionExpr], ...] = _canonical_terms(terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @classmethod
    def one(cls) -> "AlgebraElement":
        return cls([((0, 0), ONE)])

    @classmethod
    def scalar(cls, c) -> "AlgebraElement":
        return cls([((0, 0), FunctionExpr.constant(c))])

    @classmethod
    def monomial(cls, m: int, n: int, f: FunctionExpr = ONE) -> "AlgebraElement":
        return cls([((m, n), f)])

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def weights(self) -> tuple[int, ...]:
        """Sorted distinct grading weights m - n present."""
        return tuple(sorted({m - n for (m, n), _ in self.terms}))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgebraElement(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement([(key, -f) for key, f in self.terms])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return AlgebraElement([(key, f * other) for key, f in self.terms])
        if isinstance(other, AlgebraElement):
            # raw terms gathered per output monomial, each merged once at the end
            raw: dict[MonKey, list] = {}
            for (m1, n1), f1 in self.terms:
                for (m2, n2), f2 in other.terms:
                    for key, g in _monomial_product(m1, n1, f1.terms, m2, n2, f2.terms):
                        raw.setdefault(key, []).extend(g)
            return AlgebraElement([(key, FunctionExpr(g)) for key, g in raw.items()])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not in the algebra")
        out = AlgebraElement.one()
        for _ in range(k):
            out = out * self
        return out

    # -- *-structure and dynamics ------------------------------------------

    def star(self) -> "AlgebraElement":
        """The involution: antilinear antihomomorphism with X* = -Y, N_F* = N_{F*}.

        On a normal-ordered monomial,
        (X^m Y^n N_F)* = (-1)^{m+n} X^n Y^m N_{T_{2(m-n)} F*}.
        Each monomial is one pass: its terms are conjugated with the sign
        folded in, translated and canonicalized once.  Negation is exact, and
        ``shift_terms`` meets the terms of each frequency in the same order
        of power as after ``conjugate``, so for finite coefficients this equals
        ``f.conjugate().shift(2 (m - n)) * (-1) ** (m + n)`` bit for bit.
        """
        out = []
        for (m, n), f in self.terms:
            if (m + n) % 2:
                conj = [(p, -t, complex(-c.real, c.imag)) for p, t, c in f.terms]
            else:
                conj = [(p, -t, c.conjugate()) for p, t, c in f.terms]
            out.append(((n, m), FunctionExpr(shift_terms(conj, SHIFT_STEP * (m - n)))))
        return AlgebraElement(out)

    def automorphism(self, z: complex) -> "AlgebraElement":
        """U_z: scales the weight-w component by e^{izw}.

        Real z gives the dynamics group; z = i*beta gives the analytic
        continuation entering the KMS identity (U_{i beta}(X) = e^{-beta} X).
        """
        out = []
        for (m, n), f in self.terms:
            out.append(((m, n), f * cmath.exp(1j * z * (m - n))))
        return AlgebraElement(out)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def isclose(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        scale = max(
            sum(f.coeff_l1() for _, f in self.terms),
            sum(f.coeff_l1() for _, f in other.terms),
            1.0,
        )
        diff = self - other
        return all(f.coeff_l1() <= tol * scale for _, f in diff.terms)

    def __repr__(self):
        from .grammar import format_element

        return f"AlgebraElement({format_element(self)!r})"


def _coerce(value):
    if isinstance(value, AlgebraElement):
        return value
    if isinstance(value, (int, float, complex)):
        return AlgebraElement.scalar(value)
    return NotImplemented


# -- generators ---------------------------------------------------------------

X = AlgebraElement.monomial(1, 0)
Y = AlgebraElement.monomial(0, 1)
ONE_EL = AlgebraElement.one()


def N(f: FunctionExpr) -> AlgebraElement:
    """The Cartan element N_F."""
    return AlgebraElement.monomial(0, 0, f)


#: H = N_x, the Cartan generator.
H = N(X_VAR)


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a * b - b * a


def weight_zero_rows(a: AlgebraElement, b: AlgebraElement) -> tuple[list, list, list, list]:
    """The weight-zero part of a * b as unmerged rows (m, n, t, c), one list per column.

    Row i is the term cs[i] x^ns[i] e^{i ts[i] x} of the Cartan factor of
    X^m Y^m, m = ms[i]; rows with equal (m, n, t) are not merged, so their sum
    is the part's value under any linear functional.  Columns of plain
    numbers leave no object per row for the garbage collector to scan.
    """
    rows = ([], [], [], [])
    add_weight_zero_rows(rows, term_tuples(a), term_tuples(b))
    return rows


def term_tuples(a: AlgebraElement) -> tuple:
    """``a.terms`` with each Cartan factor given by its terms: ((m, n), ((p, t, c), ...)), ..."""
    return tuple((key, f.terms) for key, f in a.terms)


def add_weight_zero_rows(rows, a, b) -> int:
    """Append the rows of ``weight_zero_rows`` for a * b to ``rows``; returns how many.

    ``a`` and ``b`` are canonical elements as ``term_tuples``, so callers that
    draw elements as plain numbers never build one.  A product of monomials
    has the sum of their weights m - n, so only the pairs whose weights cancel
    are multiplied: they are the only part of a * b a covariant state can see.
    """
    ms, ns, ts, cs = rows
    start = len(ms)
    for (m1, n1), f1 in a:
        for (m2, n2), f2 in b:
            if m1 - n1 == n2 - m2:
                for (m, _), g in _monomial_product(m1, n1, f1, m2, n2, f2):
                    powers, freqs, coeffs = zip(*g)
                    ms += [m] * len(g)
                    ns += powers
                    ts += freqs
                    cs += coeffs
    return len(ms) - start


# -- the closed-form monomial product -----------------------------------------


@lru_cache(maxsize=None)
def _reorder_yx(n: int, m: int) -> AlgebraElement:
    """Canonical form of the word Y^n X^m, in closed form.

    Y^n X^m = sum_k (-1)^k k! C(n,k) C(m,k) X^{m-k} Y^{n-k} N_{P_k} with
    P_k(x) = prod_{j<k} (x + m - n + j), by induction on n from
    Y X^m = X^m Y - m X^{m-1} N_{x+m-1}.  The coefficients are exact
    integers; ``reduce_word`` is the oracle the tests hold this to.
    """
    out = []
    poly = [1]  # coefficients of P_k, lowest power first
    for k in range(min(n, m) + 1):
        scale = (-1) ** k * math.factorial(k) * math.comb(n, k) * math.comb(m, k)
        out.append(((m - k, n - k), FunctionExpr((p, 0.0, scale * c) for p, c in enumerate(poly))))
        root = m - n + k  # P_{k+1} = P_k (x + root)
        poly = [root * c + below for c, below in zip(poly + [0], [0] + poly)]
    return AlgebraElement(out)


@lru_cache(maxsize=None)
def _shifted_reorder(n1: int, m2: int, n2: int) -> tuple[tuple[MonKey, tuple], ...]:
    """``_reorder_yx(n1, m2)`` with each Cartan factor translated by 2 n2, as term tuples."""
    return tuple((key, p.shift(SHIFT_STEP * n2).terms) for key, p in _reorder_yx(n1, m2).terms)


def _monomial_product(m1, n1, f1, m2, n2, f2):
    """Normal-order (X^m1 Y^n1 N_f1)(X^m2 Y^n2 N_f2), f1 and f2 given by their terms.

    Push N_f1 right through X^m2 Y^n2 (translating by -2*m2 + 2*n2), reorder
    the inner Y^n1 X^m2 with the cached closed form, then push any Cartan factors
    of the reordering right through Y^n2.  Returns [((m, n), raw terms), ...]:
    the terms of each Cartan factor are left unmerged, for the caller to
    canonicalize once or to trace as they are.
    """
    carried = mul_terms(shift_terms(f1, SHIFT_STEP * (n2 - m2)), f2)
    return [((m1 + a, b + n2), mul_terms(p, carried)) for (a, b), p in _shifted_reorder(n1, m2, n2)]


# -- the raw rewrite engine ----------------------------------------------------
#
# Words are tuples of symbols ('X',), ('Y',), ('N', FunctionExpr).  A word is
# canonical when all X's precede all Y's and a single merged N (if any) sits at
# the end.  Each rule strictly decreases the measure
# (ladder degree, total N-displacement, Y-before-X inversions, N count),
# so reduction terminates; confluence is exercised in the tests by randomizing
# the redex choice.

SymX = ("X",)
SymY = ("Y",)


def word_of(m: int, n: int, f: FunctionExpr = ONE):
    """The word X^m Y^n N_f."""
    return (SymX,) * m + (SymY,) * n + (("N", f),)


def _redexes(word):
    spots = []
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a == SymY and b == SymX:
            spots.append(i)
        elif a[0] == "N" and b[0] in ("X", "Y", "N"):
            spots.append(i)
    return spots


def _rewrite_at(word, i):
    """Apply the rule at position i; returns [(coeff, word), ...]."""
    a, b = word[i], word[i + 1]
    head, tail = word[:i], word[i + 2 :]
    if a == SymY and b == SymX:
        return [
            (1.0, head + (SymX, SymY) + tail),
            (-1.0, head + (("N", X_VAR),) + tail),
        ]
    f = a[1]
    if b == SymX:
        return [(1.0, head + (SymX, ("N", f.shift(-SHIFT_STEP))) + tail)]
    if b == SymY:
        return [(1.0, head + (SymY, ("N", f.shift(SHIFT_STEP))) + tail)]
    return [(1.0, head + (("N", f * b[1]),) + tail)]


def reduce_word(word, pick=None) -> AlgebraElement:
    """Reduce a word over {X, Y, N_F} to its canonical AlgebraElement.

    ``pick(num_redexes) -> index`` selects which redex to contract next
    (default: leftmost).  Any choice yields the same canonical form; the
    tests exercise this with random pickers.
    """
    pending: dict[tuple, complex] = {tuple(word): 1.0 + 0j}
    done: list[tuple[MonKey, FunctionExpr]] = []
    while pending:
        w, coeff = pending.popitem()
        spots = _redexes(w)
        if not spots:
            m = sum(1 for s in w if s == SymX)
            n = sum(1 for s in w if s == SymY)
            f = ONE
            for s in w:
                if s[0] == "N":
                    f = f * s[1]
            done.append(((m, n), f * coeff))
            continue
        i = spots[0] if pick is None else spots[pick(len(spots))]
        for factor, new_word in _rewrite_at(w, i):
            pending[new_word] = pending.get(new_word, 0j) + coeff * factor
    return AlgebraElement(done)


# -- display in the white-noise basis ------------------------------------------


@dataclass(frozen=True)
class SwnElement:
    """An element written over B+ = -sqrt(2) X, B = sqrt(2) Y, N = N_x.

    ``terms`` maps (bplus_power, b_power) to the Cartan factor, exactly
    mirroring AlgebraElement in the relabeled generators.
    """

    terms: tuple[tuple[MonKey, FunctionExpr], ...]


def to_swn_basis(a: AlgebraElement) -> SwnElement:
    """Relabel X^m Y^n N_F as (-1)^m 2^{-(m+n)/2} (B+)^m B^n N_F."""
    out = []
    for (m, n), f in a.terms:
        out.append(((m, n), f * ((-1.0) ** m * 2.0 ** (-(m + n) / 2.0))))
    return SwnElement(tuple(out))


def from_swn_basis(s: SwnElement) -> AlgebraElement:
    """Inverse relabeling; roundtrip is the identity."""
    out = []
    for (m, n), f in s.terms:
        out.append(((m, n), f * ((-1.0) ** m * 2.0 ** ((m + n) / 2.0))))
    return AlgebraElement(out)
