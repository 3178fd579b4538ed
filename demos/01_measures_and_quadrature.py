"""Symmetric Jacobi marginals, orthonormal polynomials, Gauss rules, and the
induced laws the rules hold.

Walks through the univariate building blocks: the measure family on [-1, 1],
its closed-form recurrence, quadrature exactness, and the induced laws
``p_n^2 d rho`` the samplers draw from, read off a marginal's Gauss rule.
"""

import numpy as np

from opwls import UnivariateMeasure, eval_poly, gauss_rule

print("== symmetric Jacobi measures ==")
for alpha in (0.0, 1.0, 13.5):
    m = UnivariateMeasure(alpha)
    print(f"alpha={alpha:5.1f}: second moment = {m.variance:.6f}"
          f"  (1/(2a+3) = {1/(2*alpha+3):.6f})")

print("\n== orthonormal polynomials (alpha = 0: normalized Legendre) ==")
marginal = UnivariateMeasure(0.0)
x = np.array([-1.0, 0.0, 0.5, 1.0])
for n in range(4):
    print(f"p_{n}({x}) = {np.round(eval_poly(marginal, n, x), 6)}")
print(f"p_1(1) = {eval_poly(marginal, 1, 1.0):.12f}  (sqrt(3) = {np.sqrt(3):.12f})")

print("\n== Gauss rules from the tridiagonal recurrence matrix ==")
for order in (1, 2, 4):
    rule = gauss_rule(marginal, order)
    print(f"Q={order}: nodes {np.round(rule.nodes, 6)}, weights "
          f"{np.round(rule.weights, 6)} (sum {rule.weights.sum():.1f})")

rule = gauss_rule(marginal, 8)
print("\nexactness: quadrature moments vs. uniform-law moments")
for degree in (2, 4, 6):
    exact = 1.0 / (degree + 1)  # int t^d / 2 over [-1, 1] for even d
    print(f"  E[x^{degree}] quadrature {rule.moment(degree):.12f}, exact {exact:.12f}")

print("\northonormality check under the rule:")
values = np.array([eval_poly(marginal, n, rule.nodes) for n in range(5)])
gram = (values * rule.weights) @ values.T
print(f"  max |Gram - I| = {np.abs(gram - np.eye(5)).max():.2e}")

print("\n== induced laws held by the rule ==")
# row n of rule.cdf cumulates the masses w_q p_n(x_q)^2 of the degree-n law
for n, exact in enumerate((1 / 3, 3 / 5, 11 / 21)):
    masses = np.diff(rule.cdf[n], prepend=0.0)
    print(f"  degree {n}: E[x^2] {masses @ rule.nodes**2:.12f}, exact {exact:.12f}")
