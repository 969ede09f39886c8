"""Lowest-weight modules as the numerical oracle, and thermal states on top.

The module with lowest weight lambda realizes the algebra concretely; the
Gibbs density e^{-beta H/2}/Z on it defines a KMS state whose characteristic
functional has a closed form.  The same values come out of the matrix-free
recursion evaluator, which is the uniqueness argument run as an algorithm.
"""

import math

import numpy as np

from swnkms import (
    N,
    X,
    Y,
    StateSpec,
    build_rep,
    chi_closed_form,
    eval_kms_recursion,
    eval_trace,
    kms_check,
    relation_residuals,
    represent,
)
from swnkms.funcspace import FunctionExpr, X_VAR

print("== the truncated module at lambda = 1 ==")
rep = build_rep(1.0, 6)
print("X subdiagonal :", np.diag(rep.matx, -1).real)
print("H eigenvalues :", rep.cartan_eigens)
print("X = -Y^dagger exactly:", np.max(np.abs(rep.matx + rep.maty.conj().T)) == 0.0)
print("X Y image     :", np.diag(represent(X * Y, rep)).real)

print()
print("== defining relations hold on the truncation-safe subspace ==")
for lam in (0.3, 1.5, 3.7):
    report = relation_residuals(build_rep(lam, 64), FunctionExpr.x_power(2))
    print(f"lambda={lam:<4}: max relative residual {report.max_residual:.2e}")

print()
print("== the Gibbs state at lambda = 1, beta = ln 2 ==")
beta = math.log(2.0)
state = StateSpec.gibbs(1.0, beta)
print("rho(H)        =", eval_trace(state, N(X_VAR)).real, "   (closed form: 3)")
print("rho(X Y)      =", eval_trace(state, X * Y).real, "  (closed form: -3)")

print()
print("== characteristic functional: trace vs closed form ==")
for t in (0.0, 1.0, math.pi):
    traced = eval_trace(state, N(FunctionExpr.exponential(t)))
    closed = chi_closed_form(state, t)
    print(f"t={t:+.4f}: trace {traced:+.8f}  closed {closed:+.8f}")

print()
print("== the recursion evaluator agrees without ever building a matrix ==")
measure = state.measure
for element, label in ((X * Y, "X Y"), (X * X * Y * Y, "X^2 Y^2")):
    tr = eval_trace(state, element)
    rec = eval_kms_recursion(measure, beta, element)
    print(f"rho({label:<7}) trace {tr.real:+.8f}   recursion {rec.real:+.8f}")

print()
print("== randomized KMS identity check (and a sabotaged control) ==")
report = kms_check(state, max_degree=3, trials=60, seed=42)
print(f"honest dynamics   : max residual {report.max_residual:.2e} -> passed={report.passed}")
bad = kms_check(state, max_degree=3, trials=60, seed=42, dynamics_scale=2.0)
print(f"sabotaged dynamics: max residual {bad.max_residual:.2e} -> passed={bad.passed}")
