"""Closed-form finite-eps S-matrix of constant profiles, at 40 digits.

For V_j = v_j on [0, 1] every integral of the rank-one algebra is
elementary. With theta = k eps and c = -i theta,

    m_j   = v_j (e^{i theta} - 1)/(i theta)                   (edge moments)
    I     = II e^{-c|u-v|} du dv = 2 (c - 1 + e^{-c})/c^2     (same edge)
    P     = (i eps^2/2k) [ I sum_j v_j^2 - sum_j m_j^2 + (2/n) (sum_j m_j)^2 ]
    d     = eps^3/lambda(eps) + P
    N_i   = -2i eps ( Im m_i + (i/n) sum_j m_j )
    S_ij  = N_i N_j/(2ik d) + 2/n - delta_ij.

Every float input is taken at its exact binary value, and the resonant
lambda0 = 1/A with A = -sum_j v_j^2/3 is exact (``fractions``). Only the
standard library is used: ``decimal`` at 40 significant digits, with sin
and cos from their Taylor series. A run of this file prints the truth of
the shipped configs.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

DIGITS = 40
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


class Complex:
    """A complex number with Decimal parts; arithmetic in the current context."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = _decimal(re), _decimal(im)

    def __add__(self, other):
        other = _complex(other)
        return Complex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_complex(other)

    def __neg__(self):
        return Complex(-self.re, -self.im)

    def __mul__(self, other):
        other = _complex(other)
        return Complex(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _complex(other)
        norm = other.re * other.re + other.im * other.im
        return Complex(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _decimal(x):
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / Decimal(x.denominator)
    return Decimal(x)


def _complex(x):
    return x if isinstance(x, Complex) else Complex(x)


I = Complex(0, 1)


def _series(x, power):
    # sum_m (-1)^m x^(2m + power)/(2m + power)!, summed until a term no longer
    # changes the sum: cos at power 0, sin at power 1
    term = x**power
    total, last, m = term, None, 0
    while total != last:
        m += 1
        term = -term * x * x / ((2 * m + power) * (2 * m + power - 1))
        last, total = total, total + term
    return total


def expi(theta):
    """e^{i theta} for a real Decimal theta."""
    return Complex(_series(theta, 0), _series(theta, 1))


def lambda_value(scaling, amplitudes, eps):
    """lambda(eps) of a config's scaling block, exactly."""
    if scaling["resonant"]:
        lambda0 = 1 / (-sum(Fraction(v) ** 2 for v in amplitudes) / 3)
    else:
        lambda0 = Fraction(scaling["lambda0"])
    eps = Fraction(eps)
    value = lambda0 + Fraction(scaling["lambda1"]) * eps
    for m, c in enumerate(scaling.get("higher", ())):
        value += Fraction(c) * eps ** (m + 2)
    return value


def smatrix_eps(amplitudes, lam, eps, k):
    """S_eps(k) of the constant profiles v_j = amplitudes[j] under lambda(eps)
    = lam (a Fraction), as rows of ``Complex``."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        n = len(amplitudes)
        v = [Decimal(a) for a in amplitudes]
        eps, k = Decimal(eps), Decimal(k)
        theta = k * eps
        e = expi(theta)
        m = [vj * (e - 1) / (I * theta) for vj in v]
        same_edge = 2 * (1 + I * theta - e) / (theta * theta)
        total = sum(m, Complex(0))
        bracket = same_edge * sum(vj * vj for vj in v) - sum((mj * mj for mj in m), Complex(0))
        bracket = bracket + Decimal(2) / n * total * total
        d = eps**3 / _decimal(lam) + I * eps * eps / (2 * k) * bracket
        N = [-2 * I * eps * (mj.im + I * total / n) for mj in m]
        return [
            [N[i] * N[j] / (2 * I * k * d) + Decimal(2) / n - int(i == j) for j in range(n)]
            for i in range(n)
        ]


def shipped_triples():
    """(config name, amplitudes, lambda(eps), eps, k) of every shipped config's
    rungs and momenta; the shipped profiles are single constant pieces on [0, 1]."""
    for path in sorted(CONFIG_DIR.glob("*.json")):
        raw = json.loads(path.read_text())
        amplitudes = []
        for edge in raw["potential"]:
            if edge:
                (piece,) = edge
                assert piece["interval"] == [0.0, 1.0] and len(piece["coeffs"]) == 1
                amplitudes.append(piece["coeffs"][0])
            else:
                amplitudes.append(0.0)
        for eps in raw["epsilons"]:
            lam = lambda_value(raw["scaling"], amplitudes, eps)
            for k in raw["momenta"]:
                yield path.stem, amplitudes, lam, eps, k


if __name__ == "__main__":
    for name, amplitudes, lam, eps, k in shipped_triples():
        print(name, eps, k)
        for row in smatrix_eps(amplitudes, lam, eps, k):
            print("   ", "  ".join(f"{z.re:+.20e}{z.im:+.20e}j" for z in row))
