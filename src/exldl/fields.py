"""Exact field arithmetic for GF(2), GF(p), and the rationals.

Field elements are plain Python values in canonical form: the ints 0/1
for GF(2), reduced residues in [0, p) for GF(p), and normalized
`fractions.Fraction` (positive denominator) for the rationals.  Because
canonical form is unique, equality of elements is equality of values.

Each field is one `FieldContext` subclass here (`GF2Field`, `GFpField`,
`RationalField`) that owns its semantics and routes every scalar
operation, so an optional `OpCounter` can meter the exact number of
field additions, multiplications, and inversions an algorithm performs.
Its matrix class lives in `exldl.dense`; no other module branches on the
field.  No field conjugates, so the H of `conj_transpose`, L^H and
"H-symmetric" is a plain transpose.

Counting conventions (`count_product`, `count_solve`, `row_ops` and `scale_ops`
give the kernels'):
  * sub and neg count as one add, div as one mul plus one inv.
  * Matrix kernels meter semantically: a classical (m, k, n) product
    counts m*k*n muls and m*n*(k-1) adds no matter how it is computed.
  * Scaling a matrix counts one mul per entry.
  * GF(2) rows are bit-packed; one 64-bit word XOR counts as 64 adds,
    so a packed row operation of width w counts 64*ceil(w/64), a
    product counts one such add and mul per nonzero of its left factor,
    and scaling counts nothing.
"""

from __future__ import annotations

import operator
from fractions import Fraction

try:
    from gmpy2 import mpq as _ratio  # GMP-backed exact rationals
except ImportError:  # pragma: no cover - gmpy2 is a soft dependency
    _ratio = Fraction


class ExactLinAlgError(Exception):
    """Base class for errors raised by this package."""


class DivisionByZero(ExactLinAlgError, ZeroDivisionError):
    pass


class CounterDisabled(ExactLinAlgError):
    pass


class DimensionMismatch(ExactLinAlgError):
    pass


class SingularDiagonal(ExactLinAlgError):
    def __init__(self, index):
        super().__init__(f"zero diagonal entry at index {index}")
        self.index = index


class ZeroPivot(ExactLinAlgError):
    pass


class SingularPivot(ExactLinAlgError):
    pass


class ResidualLeakage(ExactLinAlgError):
    pass


class ZeroB11(ExactLinAlgError):
    pass


class NotInSpan(ExactLinAlgError):
    pass


class InconsistentSystem(ExactLinAlgError):
    pass


class InternalInvariantViolation(ExactLinAlgError):
    pass


class UnorderedField(ExactLinAlgError):
    pass


class InvalidDecomposition(ExactLinAlgError):
    """A tree decomposition that does not decompose the matrix given."""


class ParseError(ExactLinAlgError, ValueError):
    pass


class EntryOutOfField(ExactLinAlgError, ValueError):
    pass


GF2 = "gf2"
GFP = "gfp"
RATIONAL = "rational"

WORD_BITS = 64


def packed_ops(width: int) -> int:
    """Semantic op count of one packed GF(2) row operation of `width` columns."""
    if width <= 0:
        return 0
    return WORD_BITS * ((width + WORD_BITS - 1) // WORD_BITS)


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; bases 2,3,5,7 are exact below 3,215,031,751.
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class OpCounter:
    """Mutable tally of field operations. Single-writer per counter."""

    __slots__ = ("add", "mul", "inv")

    def __init__(self):
        self.add = 0
        self.mul = 0
        self.inv = 0

    def reset(self):
        self.add = 0
        self.mul = 0
        self.inv = 0

    def snapshot(self) -> dict:
        return {"add": self.add, "mul": self.mul, "inv": self.inv}


class FieldContext:
    """One of GF(2), GF(p) with p prime below 2**31, or the rationals.

    `FieldContext(kind, p)` and the `gf2`, `gfp` and `rational`
    constructors return the field's own subclass, which holds everything
    the field decides: canonical elements (`el` canonicalizes an int, an
    integer or "p/q" string, or a rational), the scalar operations, the
    counting conventions of its matrix kernels, its default Strassen
    cutoff and its spelling in the CLI.  The matrix class of each field
    lives in `exldl.dense`.
    """

    __slots__ = ("p", "counter")

    kind = None  # "gf2", "gfp" or "rational", set by each subclass
    zero = 0
    one = 1
    default_cutoff = 64  # Strassen cutoff when the caller gives none
    mm_field = "integer"  # Matrix Market field of its entries

    def __new__(cls, kind: str, p: int | None = None):
        if kind not in _FIELDS:
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == GFP:
            if p is None or p < 2 or p >= (1 << 31):
                raise ValueError("GF(p) modulus must satisfy 2 <= p < 2**31")
            if not _is_prime(p):
                raise ValueError(f"GF(p) modulus {p} is not prime")
        elif p is not None:
            raise ValueError("modulus only applies to GF(p)")
        self = object.__new__(_FIELDS[kind])
        self.p = p
        self.counter = None
        return self

    def __getnewargs__(self):
        return (self.kind, self.p)

    @classmethod
    def gf2(cls) -> "FieldContext":
        return cls(GF2)

    @classmethod
    def gfp(cls, p: int) -> "FieldContext":
        return cls(GFP, p)

    @classmethod
    def rational(cls) -> "FieldContext":
        return cls(RATIONAL)

    def __repr__(self):
        return f"FieldContext({self.kind})"

    def __eq__(self, other):
        return type(self) is type(other) and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    @property
    def spec(self) -> str:
        """The field as the CLI's --field spells it."""
        return self.kind

    def fmt(self, v) -> str:
        """An element as the CLI writes it."""
        return str(int(v))

    # -- counter ------------------------------------------------------

    def enable_counter(self) -> OpCounter:
        self.counter = OpCounter()
        return self.counter

    def disable_counter(self):
        self.counter = None

    def count_ops(self, add: int = 0, mul: int = 0, inv: int = 0):
        c = self.counter
        if c is not None:
            c.add += add
            c.mul += mul
            c.inv += inv

    def row_ops(self, width: int) -> int:
        """Ops metered for one row operation (add or scaled add) of `width` columns."""
        return width

    def count_product(self, m: int, k: int, n: int, nnz: int):
        """Charge a classical (m x k) @ (k x n) product whose left factor
        has nnz nonzero entries: m*k*n muls and m*n*(k-1) adds."""
        self.count_ops(mul=m * k * n, add=m * n * (k - 1) if k >= 1 else 0)

    def scale_ops(self, entries: int) -> int:
        """Muls metered for scaling `entries` matrix entries."""
        return entries

    def count_solve(self, couplings: int, n: int, nv: int, unit: bool = True):
        """Charge a base-case triangular solve of n unknowns with these
        off-diagonal couplings on nv right-hand sides: one add and one mul
        per coupling and right-hand side and, off a unit diagonal, n
        inversions and one mul per unknown and right-hand side."""
        d = 0 if unit else n
        self.count_ops(add=couplings * nv, mul=(couplings + d) * nv, inv=d)

    # -- elements -------------------------------------------------------

    def _int(self, value) -> int:
        """An int, integer string or integral rational as an int."""
        if isinstance(value, str):
            return int(value)
        if value is not None and getattr(value, "denominator", 1) != 1:
            raise EntryOutOfField(f"{value} is not an element of {self!r}")
        return int(value)

    # Each field gives _add, _sub, _neg, _mul and _inverse; these meter them.

    def add(self, a, b):
        c = self.counter
        if c is not None:
            c.add += 1
        return self._add(a, b)

    def sub(self, a, b):
        c = self.counter
        if c is not None:
            c.add += 1
        return self._sub(a, b)

    def neg(self, a):
        c = self.counter
        if c is not None:
            c.add += 1
        return self._neg(a)

    def mul(self, a, b):
        c = self.counter
        if c is not None:
            c.mul += 1
        return self._mul(a, b)

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inversion of zero")
        c = self.counter
        if c is not None:
            c.inv += 1
        return self._inverse(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def is_ordered(self) -> bool:
        return False


class GF2Field(FieldContext):
    """GF(2): elements are the ints 0 and 1; matrices pack their rows."""

    __slots__ = ()
    kind = GF2
    default_cutoff = 256

    def row_ops(self, width: int) -> int:
        return packed_ops(width)

    def count_product(self, m: int, k: int, n: int, nnz: int):
        # The packed product adds one row of b per nonzero entry of a.
        w = packed_ops(n)
        self.count_ops(add=nnz * w, mul=nnz * w)

    def scale_ops(self, entries: int) -> int:
        # Scaling by 0 or 1 clears or copies a matrix.
        return 0

    def el(self, value):
        return self._int(value) & 1

    _add = _sub = staticmethod(operator.xor)
    _mul = staticmethod(operator.and_)

    def _neg(self, a):
        return a

    def _inverse(self, a):
        return 1


class GFpField(FieldContext):
    """GF(p): elements are the residues 0..p-1 as ints."""

    __slots__ = ()
    kind = GFP

    def __repr__(self):
        return f"FieldContext(GF({self.p}))"

    @property
    def spec(self) -> str:
        return f"gfp:{self.p}"

    def el(self, value):
        return self._int(value) % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _inverse(self, a):
        return pow(a, -1, self.p)


class RationalField(FieldContext):
    """Q: elements are normalized exact rationals of type `_ratio`."""

    __slots__ = ()
    kind = RATIONAL
    zero = _ratio(0)
    one = _ratio(1)
    mm_field = "rational"

    def fmt(self, v) -> str:
        num, den = v.numerator, v.denominator
        return str(num) if den == 1 else f"{num}/{den}"

    def el(self, value):
        if isinstance(value, str):
            return _ratio(Fraction(value))
        return _ratio(value)

    _add = staticmethod(operator.add)
    _sub = staticmethod(operator.sub)
    _neg = staticmethod(operator.neg)
    _mul = staticmethod(operator.mul)

    def _inverse(self, a):
        return 1 / a

    def is_ordered(self) -> bool:
        return True


_FIELDS = {GF2: GF2Field, GFP: GFpField, RATIONAL: RationalField}


def op_count_snapshot(ctx: FieldContext) -> dict:
    """Monotone {add, mul, inv} counts since the last reset."""
    if ctx.counter is None:
        raise CounterDisabled("op counter is not enabled on this context")
    return ctx.counter.snapshot()
