"""Sparse exact-integer Laurent polynomials.

Keys are exponent tuples (length = nvars), values are ints; zero
coefficients are never stored.  One type serves q and q,t polynomials and
Weyl characters, whose keys are doubled-integer weight vectors so
half-integer weights stay exact.
"""


def _collect(terms, out):
    """Add each (exponents, coefficient) of terms into out, dropping a zero
    sum; return out."""
    for k, v in terms:
        w = out.get(k, 0) + v
        if w:
            out[k] = w
        elif k in out:
            del out[k]
    return out


class Poly:
    __slots__ = ("nvars", "c")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self.c = _collect(zip(map(tuple, coeffs), coeffs.values()), {}) if coeffs else {}

    @classmethod
    def zero(cls, nvars=1):
        return cls(nvars)

    @classmethod
    def one(cls, nvars=1):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def mono(cls, exps, coeff=1):
        exps = tuple(exps)
        return cls(len(exps), {exps: coeff})

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.c == ({} if other == 0 else {(0,) * self.nvars: other})
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.c == other.c

    def __hash__(self):
        return hash((self.nvars, frozenset(self.c.items())))

    def __add__(self, other):
        p = Poly(self.nvars)
        p.c = _collect(self._coerce(other).c.items(), dict(self.c))
        return p

    def __neg__(self):
        p = Poly(self.nvars)
        p.c = {k: -v for k, v in self.c.items()}
        return p

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            p = Poly(self.nvars)
            if other:
                p.c = {k: v * other for k, v in self.c.items()}
            return p
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        p = Poly(self.nvars)
        p.c = _collect(
            (
                (tuple(a + b for a, b in zip(k1, k2)), v1 * v2)
                for k1, v1 in self.c.items()
                for k2, v2 in other.c.items()
            ),
            {},
        )
        return p

    __rmul__ = __mul__
    __radd__ = __add__

    def _coerce(self, other):
        if isinstance(other, int):
            return Poly(self.nvars, {(0,) * self.nvars: other})
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        return other

    def shift(self, exps):
        """Multiply by the monomial with the given exponents."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("variable count mismatch")
        p = Poly(self.nvars)
        p.c = {tuple(a + b for a, b in zip(k, exps)): v for k, v in self.c.items()}
        return p

    def invert_vars(self):
        """Substitute x_i -> 1/x_i."""
        p = Poly(self.nvars)
        p.c = {tuple(-a for a in k): v for k, v in self.c.items()}
        return p

    def coeff(self, exps):
        return self.c.get(tuple(exps), 0)

    def subs_all_one(self):
        """Evaluate every variable at 1."""
        return sum(self.c.values())

    def subs_t_q(self):
        """For a two-variable poly in (q,t), set t = q."""
        if self.nvars != 2:
            raise ValueError("subs_t_q needs a polynomial in (q, t), not in %d variables" % self.nvars)
        p = Poly(1)
        p.c = _collect((((a + b,), v) for (a, b), v in self.c.items()), {})
        return p

    def __str__(self):
        names = ("q", "t")[: self.nvars] if self.nvars <= 2 else ["x%d" % i for i in range(1, self.nvars + 1)]
        return poly_str(self, names)

    __repr__ = __str__


def poly_str(p, names):
    """Render sparse, descending total degree then reverse-lex; stable.
    names gives one name per variable."""
    if len(names) != p.nvars:
        raise ValueError("variable count mismatch: %d names for %d variables" % (len(names), p.nvars))
    if not p.c:
        return "0"
    keys = sorted(p.c, key=lambda k: (sum(k),) + k, reverse=True)
    parts = []
    for k in keys:
        v = p.c[k]
        factors = []
        for name, e in zip(names, k):
            if e == 0:
                continue
            factors.append(name if e == 1 else "%s^%d" % (name, e))
        body = "*".join(factors)
        if not body:
            term = str(abs(v))
        elif abs(v) == 1:
            term = body
        else:
            term = "%d*%s" % (abs(v), body)
        sign = "-" if v < 0 else "+"
        parts.append((sign, term))
    out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, term in parts[1:]:
        out += sign + term
    return out
