"""Write `fk3_oracle.json`: Fourier-Jacobi coefficients of fk:3 at (0, -0.6).

fk:3 = P_3 hw with hw = (1-y)^(a/2) (1+y)^(b/2), so at (a, b) = (0, -0.6)

    c_n = (1/h_n) int P_3(y) P_n(y) (1+y)^(-0.9) dy.

mpmath's `quad` is no oracle at that end power. The substitution
y = -1 + t^10 turns the integral into int 10 P_3 P_n dt over [0, 2^(1/10)],
a polynomial in t, and h_n has a closed form. Two quadratures of it, tanh-sinh
on 8 cells and Gauss-Legendre on 16, must agree to 30 digits before a value is
written.

Run from the repository root (about 10 s): python tests/make_fk3_oracle.py
"""

import json
from pathlib import Path

import mpmath as mp

ALPHA, BETA = 0.0, -0.6
DEGREES = (0, 7, 60)
DIGITS = 30
OUT = Path(__file__).with_name("fk3_oracle.json")


def coefficient(n: int) -> mp.mpf:
    a, b = mp.mpf(ALPHA), mp.mpf(BETA)
    top = mp.mpf(2) ** mp.mpf("0.1")

    def integrand(t):
        y = -1 + t**10
        return 10 * mp.jacobi(3, a, b, y) * mp.jacobi(n, a, b, y)

    h = (
        2 ** (a + b + 1) / (2 * n + a + b + 1)
        * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
        / (mp.gamma(n + a + b + 1) * mp.factorial(n))
    )
    first = mp.quad(integrand, mp.linspace(0, top, 9), method="tanh-sinh")
    second = mp.quad(integrand, mp.linspace(0, top, 17), method="gauss-legendre")
    if abs(first - second) > mp.mpf(10) ** -DIGITS * max(abs(first), 1):
        raise RuntimeError(f"n = {n}: the two quadratures differ by {first - second}")
    return first / h


def main() -> None:
    mp.mp.dps = DIGITS + 10
    record = {
        "alpha": ALPHA,
        "beta": BETA,
        "method": (
            "c_n = (1/h_n) int 10 P_3 P_n dt over [0, 2^(1/10)], y = -1 + t^10; "
            f"mpmath tanh-sinh and Gauss-Legendre agree to {DIGITS} digits"
        ),
        "coefficients": {str(n): mp.nstr(coefficient(n), DIGITS) for n in DEGREES},
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
