"""Reference scalar kernel, kept for tests only.

This is the original arithmetic behind ``Coeff``: numerators keyed by
exponent tuples in ``VARS`` order with ``Fraction`` coefficients, values as
``(num, dp)`` pairs meaning ``num / (1+b)^dp``.  The packed integer kernel
in ``bconstell.coeffring`` must agree with it on every operation.
``parse`` reads the text form ``Coeff.__str__`` prints back into a ``Coeff``.
"""

import re
from fractions import Fraction
from math import comb

from bconstell import coeffring
from bconstell.coeffring import _FIELD_MASK, _VAR_SHIFT

VARS = ("b", "u1", "u2", "u3", "q1", "q2", "q3")
NVARS = len(VARS)
ZERO_EXP = (0,) * NVARS

_F0 = Fraction(0)


def poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, _F0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, _F0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def div_one_plus_b(num):
    """Divide by (1+b) as a polynomial in b; return the quotient or None."""
    groups = {}
    for exps, c in num.items():
        groups.setdefault(exps[1:], {})[exps[0]] = c
    quot = {}
    for rest, coeffs in groups.items():
        d = max(coeffs)
        if d == 0:
            return None
        q = {}
        qk = coeffs[d]
        q[d - 1] = qk
        for k in range(d - 1, 0, -1):
            qk = coeffs.get(k, _F0) - qk
            q[k - 1] = qk
        if coeffs.get(0, _F0) - q[0] != 0:
            return None
        for k, c in q.items():
            if c:
                quot[(k,) + rest] = c
    return quot


def one_plus_b_pow(e):
    return {(k,) + ZERO_EXP[1:]: Fraction(comb(e, k)) for k in range(e + 1)}


def canon(num, dp):
    """Canonical (num, dp): strip every (1+b) factor the denominator allows."""
    num = {e: Fraction(c) for e, c in num.items() if c}
    while dp > 0 and num:
        quot = div_one_plus_b(num)
        if quot is None:
            break
        num = quot
        dp -= 1
    return num, dp if num else 0


def add(x, y):
    (a, da), (b, db) = x, y
    e = max(da, db)
    if e > da:
        a = poly_mul(a, one_plus_b_pow(e - da))
    if e > db:
        b = poly_mul(b, one_plus_b_pow(e - db))
    return canon(poly_add(a, b), e)


def neg(x):
    num, dp = x
    return {e: -c for e, c in num.items()}, dp


def mul(x, y):
    return canon(poly_mul(x[0], y[0]), x[1] + y[1])


def power(x, n):
    out = ({ZERO_EXP: Fraction(1)}, 0)
    for _ in range(n):
        out = mul(out, x)
    return out


def to_str(x):
    """The text form Coeff.__str__ must print for the value x."""
    num, dp = x
    if not num:
        return "0"
    parts = []
    for exps in sorted(num, reverse=True):
        c = num[exps]
        factors = [v if e == 1 else "%s^%d" % (v, e) for v, e in zip(VARS, exps) if e]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    num_s = "".join(parts)
    if not dp:
        return num_s
    if len(num) > 1 or num_s.startswith("-"):
        num_s = "(" + num_s + ")"
    return "%s/(1+b)^%d" % (num_s, dp)


_DENOM_RE = re.compile(r"^(.*?)/\(1\+b\)\^(\d+)$")
_MONO_RE = re.compile(r"^(%s)(?:\^(\d+))?$" % "|".join(coeffring.VARS))


def parse(s):
    """The Coeff whose str() is s; the inverse of Coeff.__str__."""
    s = s.strip().replace(" ", "")
    m = _DENOM_RE.match(s)
    dp = 0
    if m:
        s, dp = m.group(1), int(m.group(2))
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
    num = {}
    for term in re.findall(r"[+-]?[^+-]+", s):
        coeff = Fraction(1)
        if term.startswith("-"):
            coeff, term = -coeff, term[1:]
        elif term.startswith("+"):
            term = term[1:]
        exps = dict.fromkeys(coeffring.VARS, 0)
        for factor in term.split("*"):
            mono = _MONO_RE.match(factor)
            if mono:
                exps[mono.group(1)] += int(mono.group(2) or 1)
            else:
                coeff *= Fraction(factor)
        coeffring.add_term(num, coeffring._pack(exps.values()), coeff)
    return coeffring.Coeff(num, dp)



# Coeff.__str__ as it was when it printed from the rational view Coeff.num,
# verbatim but for its name; the printer that reads n and den directly must
# agree with it
def num_str(self):
    if not self.n:
        return "0"
    num = self.num
    parts = []
    for key in sorted(num, reverse=True):
        c = num[key]
        neg = c < 0
        mag = str(-c if neg else c)
        # a unit magnitude is printed only on the constant monomial
        factors = [mag] if mag != "1" or not key else []
        for v, shift in _VAR_SHIFT.items():
            e = (key >> shift) & _FIELD_MASK
            if e:
                factors.append(v if e == 1 else "%s^%d" % (v, e))
        body = "*".join(factors)
        if parts:
            parts.append((" - " if neg else " + ") + body)
        else:
            parts.append("-" + body if neg else body)
    num_s = "".join(parts)
    if not self.dp:
        return num_s
    if len(num) > 1 or num_s.startswith("-"):
        num_s = "(" + num_s + ")"
    return "%s/(1+b)^%d" % (num_s, self.dp)
