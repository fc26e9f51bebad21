"""The text form of a Laurent polynomial, such as "t - 1 + t^-1".

`LaurentPoly.__str__` imports it on first use: only messages about invalid
input and printing show a polynomial, so no valid job compiles it.
"""

from __future__ import annotations

from .laurent import LaurentPoly, halve_exponent


def poly_text(f: LaurentPoly) -> str:
    """f as text, the highest exponent first."""
    if f.is_zero():
        return "0"
    names = ["t"] if f.nvars == 1 else [f"t{i+1}" for i in range(f.nvars)]
    parts = []
    for exp, coef in sorted(f.terms.items(), reverse=True):
        factors = []
        for name, d in zip(names, exp):
            if d == 0:
                continue
            e = halve_exponent(d)
            if e == 1:
                factors.append(name)
            elif e.denominator == 1:
                factors.append(f"{name}^{e.numerator}")
            else:
                factors.append(f"{name}^({e})")
        mono = "*".join(factors)
        if not mono:
            body = str(abs(coef))
        elif abs(coef) == 1:
            body = mono
        else:
            body = f"{abs(coef)}*{mono}"
        sign = "-" if coef < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
