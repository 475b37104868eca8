"""Exact scalar arithmetic: big integers, rationals, univariate polynomials.

Scalars are plain Python values: ``int``, ``fractions.Fraction`` and
:class:`Polynomial`.  The ring a container works over is named by one of the
singletons :data:`INT`, :data:`RAT`, :data:`POLY`; a ring knows how to coerce,
serialize and compare its scalars.  Coercion only ever promotes upward
(int -> rational -> polynomial); anything else is rejected.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParameter, DuplicateNode, RingUnsupported


class Polynomial:
    """Univariate polynomial with rational coefficients.

    ``coeffs[i]`` is the coefficient of X^i; the tuple never has trailing
    zeros, and the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def const(cls, c) -> "Polynomial":
        return cls((Fraction(c),))

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        if len(self.coeffs) <= 1:
            # constants hash like their value, so {1, X} style sets behave
            return hash(self.coeffs[0] if self.coeffs else Fraction(0))
        return hash(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise BadParameter("polynomial powers need integer exponent k >= 0")
        result = Polynomial((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            # the square after the last bit would be the largest product, unused
            if k:
                base = base * base
        return result

    def eval(self, a) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        a = Fraction(a)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def divmod(self, other: "Polynomial"):
        """Exact polynomial long division, returns (quotient, remainder)."""
        other = _as_poly(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for i in range(dq, -1, -1):
            c = rem[i + len(other.coeffs) - 1] / lead
            quo[i] = c
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] -= c * oc
        return Polynomial(quo), Polynomial(rem)

    def x_valuation(self) -> int:
        """Index of the lowest nonzero coefficient (0 for units, error on 0)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise BadParameter("the zero polynomial has no X-adic valuation")

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise BadParameter("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*X" if c != 1 else "X")
            else:
                parts.append(f"{c}*X^{i}" if c != 1 else f"X^{i}")
        return "Polynomial(" + " + ".join(parts) + ")"


X = Polynomial((0, 1))


def _as_poly(v):
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, (int, Fraction)):
        return Polynomial((v,))
    return None


class Ring:
    """One of the supported exact coefficient rings."""

    def __init__(self, name):
        self.name = name
        # scalars are immutable, so every caller may share these two
        self.zero = {"int": 0, "rat": Fraction(0), "poly": Polynomial()}[name]
        self.one = {"int": 1, "rat": Fraction(1), "poly": Polynomial((1,))}[name]

    def __repr__(self):
        return f"Ring({self.name})"

    def coerce(self, v):
        """Accept a scalar of this ring or anything that promotes into it."""
        if self.name == "int":
            # no demotion: a Fraction is rejected even when its denominator is 1
            if isinstance(v, int) and not isinstance(v, bool):
                return v
            raise RingUnsupported(f"cannot treat {v!r} as an integer scalar")
        if self.name == "rat":
            if isinstance(v, Fraction):
                return v
            if isinstance(v, int) and not isinstance(v, bool):
                return Fraction(v)
            raise RingUnsupported(f"cannot treat {v!r} as a rational scalar")
        if isinstance(v, Polynomial):
            return v
        if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
            return Polynomial((v,))
        raise RingUnsupported(f"cannot treat {v!r} as a polynomial scalar")

    def contains(self, other: "Ring") -> bool:
        order = {"int": 0, "rat": 1, "poly": 2}
        return order[self.name] >= order[other.name]

    def is_nonneg(self, v) -> bool:
        # for polynomials this is a conservative surrogate: every
        # coefficient non-negative implies non-negative on [0, infinity)
        if self.name == "poly":
            return all(c >= 0 for c in v.coeffs)
        return v >= 0

    def to_json(self, v):
        if self.name == "poly":
            return [_frac_str(c) for c in v.coeffs]
        return _frac_str(v) if self.name == "rat" else str(v)

    def from_json(self, obj):
        if self.name == "poly":
            if isinstance(obj, list):
                return Polynomial(_frac_parse(c) for c in obj)
            return Polynomial((_frac_parse(obj),))
        v = _frac_parse(obj)
        if self.name == "int":
            if v.denominator != 1:
                raise RingUnsupported(f"{obj!r} is not an integer")
            return int(v)
        return v


INT = Ring("int")
RAT = Ring("rat")
POLY = Ring("poly")

RINGS = {"int": INT, "rat": RAT, "poly": POLY}


def _frac_str(v) -> str:
    return str(Fraction(v))


def _frac_parse(obj) -> Fraction:
    if isinstance(obj, bool):
        raise RingUnsupported("booleans are not scalars")
    if isinstance(obj, (int, str)):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise RingUnsupported(f"bad rational literal {obj!r}") from exc
    raise RingUnsupported(f"bad scalar literal {obj!r}")


def vandermonde_solve(xs, bs):
    """Solve b_j = sum_i c_i * x_i**j for j = 1..n, exactly.

    The nodes must be pairwise distinct; note the powers start at 1, not 0,
    so a zero node makes the system singular even though it is not a
    duplicate (rejected with BadParameter).
    """
    xs = [Fraction(x) for x in xs]
    bs = [Fraction(b) for b in bs]
    n = len(xs)
    if len(bs) != n:
        raise BadParameter("need as many values as nodes")
    if len(set(xs)) != n:
        raise DuplicateNode(f"interpolation nodes must be distinct: {xs}")
    if n == 0:
        return []
    if any(x == 0 for x in xs):
        raise BadParameter("a zero node makes the system singular (powers start at 1)")
    rows = []
    for j in range(1, n + 1):
        rows.append([x**j for x in xs] + [bs[j - 1]])
    # plain rational Gaussian elimination; the system is square and,
    # with distinct nonzero nodes, provably nonsingular
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        pv = rows[col][col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / pv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def _exact_div(a, b):
    # two ints skip the ABC instance checks: exact_rank on integer matrices
    # makes most of the calls
    if type(a) is not int or type(b) is not int:
        if isinstance(a, Polynomial) or isinstance(b, Polynomial):
            pa = a if isinstance(a, Polynomial) else Polynomial((a,))
            pb = b if isinstance(b, Polynomial) else Polynomial((b,))
            q, r = pa.divmod(pb)
            if r:
                raise ArithmeticError("inexact polynomial division in elimination")
            return q
        if isinstance(a, Fraction) or isinstance(b, Fraction):
            return Fraction(a) / Fraction(b)
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact integer division in elimination")
    return q


def exact_rank(rows) -> int:
    """Row rank of a rectangular matrix by fraction-free elimination.

    Entries may be ints, Fractions or Polynomials (rank over the fraction
    field of the polynomial ring).  Bareiss one-step elimination keeps all
    intermediate values in the entry ring, with exact divisions only.
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    if any(len(r) != ncols for r in m):
        raise BadParameter("ragged matrix")
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = _exact_div(m[rank][col] * m[r][c] - m[r][col] * m[rank][c], prev)
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank
