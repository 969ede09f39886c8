"""Walk through the rewrite system: normal ordering, the star, the dynamics.

Every element of the algebra reduces to a sum of monomials X^m Y^n N_F.
This script shows the rewrite rules doing that reduction, checks the star
operation and the one-parameter automorphism group, and displays an element
in the white-noise generator relabeling.
"""

import math
import random

from swnkms import (
    H,
    N,
    X,
    Y,
    commutator,
    format_element,
    from_swn_basis,
    parse_element,
    to_swn_basis,
)
from swnkms.algebra import reduce_word, word_of
from swnkms.funcspace import FunctionExpr, X_VAR

print("== normal ordering ==")
print("Y X          ->", format_element(Y * X))
print("Y X^2        ->", format_element(Y * (X * X)))
f = FunctionExpr.x_power(2)
print("N[x^2] X     ->", format_element(N(f) * X))
print("[X, Y]       ->", format_element(commutator(X, Y)))
print("[X, H]       ->", format_element(commutator(X, H)))

print()
print("== the same reduction, random rewrite order each time ==")
word = word_of(0, 2, X_VAR) + word_of(2, 1, f)
reference = reduce_word(word)
print("canonical    ->", format_element(reference))
for seed in range(3):
    rnd = random.Random(seed)
    shuffled = reduce_word(word, pick=lambda k: rnd.randrange(k))
    print(f"seed {seed} agrees   ->", shuffled.isclose(reference, 1e-12))

print()
print("== involution: antilinear antihomomorphism with X* = -Y ==")
print("X*           ->", format_element(X.star()))
print("(X N[x^2])*  ->", format_element((X * N(f)).star()))
a = parse_element("X^2 Y N[x^2 + exp(1.5)] - 2i (X Y)^2")
print("a            ->", format_element(a))
print("a** == a     ->", a.star().star().isclose(a, 1e-12))

print()
print("== dynamics U_z scales weight-w monomials by e^{izw} ==")
beta = 0.8
print("U_t(X), t=pi/2      ->", format_element(X.automorphism(math.pi / 2)))
print("U_{i beta}(X)       ->", format_element(X.automorphism(1j * beta)),
      f"  (e^-beta = {math.exp(-beta):.6f})")
print("U_z(N[x^2]) fixed   ->", N(f).automorphism(0.3 + 1j) == N(f))

print()
print("== white-noise relabeling (B = sqrt2 Y, B+ = -sqrt2 X, N = H) ==")
el = X * X * Y * N(X_VAR)
swn = to_swn_basis(el)
for (m, n), g in swn.terms:
    print(f"  (B+)^{m} B^{n} with Cartan factor {g.terms}")
print("roundtrip is identity ->", from_swn_basis(swn).isclose(el, 1e-14))
