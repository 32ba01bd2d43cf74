"""Evaluating E_m(Az) through the Jordan canonical form.

For a Jordan block J = lam*I + N the generalized exponential is an upper
triangular Toeplitz matrix whose h-th diagonal is the series

    Delta_h(lam, z) = sum_{p>=h} C(p,h) lam^(p-h) z^p / m(p).

Decomposing A = P J P^{-1} therefore gives a second, structurally different
evaluation path.  Comparing it with direct summation is a strong cross-check:
the two paths share no code beyond scalar arithmetic.
"""

from momexp import (
    CMatrix,
    MomentSequence,
    eval_exp,
    eval_via_jordan,
    jordan_decompose,
    verify_decomposition,
)


def main():
    # A defective matrix: a single eigenvalue 1 with one 3x3 Jordan block.
    A = CMatrix([[0.0, 1, 1], [-1, 2, 1], [1, -1, 1]])
    dec = jordan_decompose(A)

    print("Jordan structure of A:")
    for lam, size in dec.blocks:
        print(f"  eigenvalue {lam.real:+.4f}{lam.imag:+.4f}i, block size {size}")
    check = verify_decomposition(A, dec)
    print(f"  reconstruction residual ||A - P J P^-1|| = {check['residual']:.2e}\n")

    print("direct series vs Jordan path, q-factorial moments (q=2):")
    seq = MomentSequence.q_factorial(2)
    for z in (0.4, 0.2 + 0.1j):
        direct = eval_exp(A, z, seq).value
        via = eval_via_jordan(dec, z, seq).value
        gap = (direct - via).row_sum_norm()
        print(f"  z = {z}:  discrepancy {gap:.2e}")

    # The exact backend can certify a decomposition with zero residual when
    # the eigenvalues are known exactly.
    B = CMatrix([[1, 0, 1], [1, 2, 0], [0, 0, 1]])  # integer entries -> exact
    exact = jordan_decompose(B, eigenvalues_hint=[(1, 2), (2, 1)])
    residual = verify_decomposition(B, exact)["residual"]
    print(f"\nexact decomposition of an integer matrix: residual = {residual}")
    print("  blocks:", [(str(lam), size) for lam, size in exact.blocks])


if __name__ == "__main__":
    main()
