"""Univariate polynomials over an arbitrary coefficient context.

Payload: tuple of base payloads in ascending degree with no trailing
zeros, so the zero polynomial is the empty tuple and payload equality is
polynomial equality whenever the base payloads are canonical.

The degree of the zero polynomial is the sentinel NEG_INF, which
compares below every integer and absorbs addition, so the product rule
deg(fg) = deg f + deg g holds over domains without special-casing.

Division with remainder is available in two forms: divrem_field for
field coefficients (this one backs the Euclidean hooks), and
divrem_scaled over any commutative base, which scales f by the leading
coefficient of g just often enough to keep every division step exact
and reports the scaling exponent.

PolyRing and SeriesRing hand each sum, negative, product, division and
series inverse to the kernel record of their base in one call
(base_kernel).  There are four records, all on lists of coefficients.
A base whose payloads the dense algorithms read directly returns one of
the first three from its kernel() hook, and int_kernel(n) picks the
first or second:

  * IntKernel(n) for Z/n and Z (n = 0), Quot(Z, n) among them: a
    product is the schoolbook loop on short operands, else Kronecker
    substitution: kron_mul packs each operand into one int, in slots
    that struct fills and reads for a whole list at once, lets CPython's
    Karatsuba multiply them and reads back the coefficients, or only the
    low ones a caller keeps.
  * F2Kernel for Z/2: IntKernel(2), except that division, gcd, xgcd and
    powmod pack each operand into one int, bit i the coefficient of
    x^i, and run by shift-and-XOR.
  * TowerKernel(p, m) for F_p[y]/(m): two-level Kronecker substitution,
    three products of ints in all, with every coefficient reduced mod m
    by one packed Barrett step; sums and negatives on the ints mod p.
  * LoopKernel(base) for every other base: the schoolbook loops and the
    series recurrence, one base call per coefficient operation.

The dense records share the rest (Kernel), F2Kernel's four methods
aside.  Series invert by Newton iteration, from the recurrence below
NEWTON_MIN over Z/n.  Division multiplies by a Newton inverse of the
reversed divisor, which the kernel keeps for its last divisor, so a
chain of reductions mod one f computes it once; over F_p short division
runs below NEWTON_MIN.  Over a field other than F_2 the Euclidean
remainder sequence (gcd, xgcd, which euclid reaches through
euclid_kernel()) runs from HGCD_MIN coefficients by the half-gcd of
Thull and Yap (von zur Gathen and Gerhard, Modern Computer Algebra,
11.1): about half of the remaining steps at once, as a 2x2 transition
matrix from two recursive calls of half the size, in O(M(n) log n)
instead of O(n^2) coefficient operations, with the quotients,
remainders and cofactors of the classical loop.  factor.py's distinct-
and equal-degree loops call the kernel of F_p (prime_kernel) directly.
This module alone chooses among the dense algorithms; the *_MIN
constants are the measured crossovers.
"""

import itertools
import math
import operator
import struct

from .algebra import (
    DOMAIN,
    EUCLIDEAN,
    FIELD,
    Element,
    OverBase,
    context_of,
    int_scale_payload,
    payload_in,
    polynomial_inverse,
    show_terms,
)
from .errors import (
    ContextNotEuclidean,
    DivisionByZero,
    DuplicateNode,
    InfiniteRing,
    NotAField,
    NotARoot,
    RingError,
    ZeroPolynomial,
)


NEG_INF = float("-inf")

# Measured crossovers: Kronecker products from KRONECKER_MIN coefficients
# in the shorter factor; Newton division once quotient and divisor both
# have NEWTON_MIN (with a short divisor the O(len(q) len(b)) loop stays
# cheaper at any quotient length); Newton series inversion from that
# precision.  The half-gcd from HGCD_MIN coefficients in the divisor, and
# from GCD_HGCD_MIN for a gcd alone, which has no cofactors to update.
KRONECKER_MIN = 5
NEWTON_MIN = 32
HGCD_MIN = 48
GCD_HGCD_MIN = 256


_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _width(bits):
    """Bytes per slot for values below 2^bits: 1, 2, 4 or 8, which struct
    packs and reads for a whole list at once, else the exact count."""
    w = (bits + 7) // 8 or 1
    return 1 << (w - 1).bit_length() if w <= 8 else w


def _pack(c, w):
    if w <= 8:
        data = struct.pack(f"<{len(c)}{_CODES[w]}", *c)
    else:
        data = b"".join([x.to_bytes(w, "little") for x in c])
    return int.from_bytes(data, "little")


def _unpack(x, w, m, keep):
    """The low keep of the m slots of x."""
    data = x.to_bytes(m * w, "little")
    if w <= 8:
        return struct.unpack_from(f"<{keep}{_CODES[w]}", data)
    return [int.from_bytes(data[i:i + w], "little")
            for i in range(0, keep * w, w)]


def kron_mul(a, b, n, keep=None):
    """Coefficients of a*b over Z/n (n > 0) or Z (n == 0), a and b
    nonempty: all of them, or the low keep.

    Each coefficient gets a slot of w bytes wide enough for any product
    coefficient, so the slots never carry into each other.  Over Z every
    slot is biased by half its range, which keeps signed coefficients
    apart without a carry loop; the width is taken from max|.| of at
    least 1, so a zero operand still leaves room for the other one.
    """
    k = min(len(a), len(b))
    m = len(a) + len(b) - 1
    keep = m if keep is None else min(keep, m)
    if n:
        w = _width(((n - 1) ** 2 * k).bit_length())
        pa = _pack(a, w)
        c = _unpack(pa * (pa if a is b else _pack(b, w)), w, m, keep)
        return [x % n for x in c]
    w = _width((k * max(1, *map(abs, a)) * max(1, *map(abs, b)))
               .bit_length() + 1)
    h = 1 << (8 * w - 1)
    bias = int.from_bytes(h.to_bytes(w, "little") * m, "little")
    pa = _pack([x + h for x in a], w) - (bias >> 8 * w * (m - len(a)))
    pb = pa if a is b else \
        _pack([x + h for x in b], w) - (bias >> 8 * w * (m - len(b)))
    return [x - h for x in _unpack(pa * pb + bias, w, m, keep)]


def _trim(c):
    while c and not c[-1]:
        c.pop()
    return c


# -- kernels: the arithmetic of one base on lists of its payloads,
#    ascending, which PolyRing, SeriesRing and euclid hand over

class Kernel:
    """What the kernels share.  A subclass gives zero, one, mul(a, b,
    keep) (all coefficients of a*b, or the low keep; [] when a or b is
    empty), add (trimmed), neg, invert (the inverse of one coefficient,
    None for a non-unit) and memo, divmod's last divisor and its
    inverse.  trim drops the trailing zeros of a list in place."""

    trim = staticmethod(_trim)

    def sub(self, a, b):
        """a - b, trimmed."""
        return self.add(a, self.neg(b))

    def submul(self, u, q, v):
        """u - q v."""
        return self.sub(u, self.mul(q, v))

    def seed(self, f, prec, u):
        """The first coefficients of 1/f, for u = 1/f[0]."""
        return [u]

    def inverse(self, f, prec):
        """First prec coefficients of 1/f, or None when f[0] is not a
        unit: from the seed, Newton iteration g <- g(2 - fg) mod x^k
        doubles k up to prec (von zur Gathen and Gerhard, 9.1), with f
        padded by zeros to k coefficients: fg = 1 mod x^h already, so only
        its coefficients h..k-1 enter."""
        u = self.invert(f[0])
        if u is None:
            return None
        g = self.seed(f, prec, u)
        while len(g) < prec:
            h = len(g)
            k = min(2 * h, prec)
            fk = list(f[:k]) + [self.zero] * (k - len(f))
            g += self.mul(g, self.neg(self.mul(fk, g, k)[h:]), k - h)
        return g

    def divmod(self, a, b, memo=True):
        """(q, r) of a by b, whose leading coefficient is a unit: rev q =
        rev a / rev b mod x^m by a Newton inverse, r = a - q*b.  With memo
        the kernel keeps b and that inverse, which serves every quotient
        up to its length, so a chain of reductions mod one f (powers in
        Quot(F[x], f)) computes it once."""
        m = len(a) - len(b) + 1
        if m <= 0:
            return [], a
        if memo and self.memo[0] == b and len(self.memo[1]) >= m:
            inv = self.memo[1][:m]
        else:
            inv = self.inverse(b[::-1], m)
            if memo:
                self.memo[:] = b, inv
        q = self.mul(a[::-1][:m], inv, m)[::-1]
        db = len(b) - 1
        return q, self.sub(a[:db], self.mul(q, b, db))

    def powmod(self, a, e, f):
        """a^e mod f, e >= 1: left-to-right square and multiply, each
        product reduced by divmod with the memo."""
        a = self.divmod(a, f)[1]
        out = a
        for bit in bin(e)[3:]:
            out = self.divmod(self.mul(out, out), f)[1]
            if bit == "1":
                out = self.divmod(self.mul(out, a), f)[1]
        return out

    def gcd(self, a, b):
        """The monic gcd of a and b over a field as a tuple (gcd(0, 0) =
        ())."""
        return self._monic(_euclid(a, b, self, None))[0]

    def xgcd(self, a, b):
        """(g, x, y) as tuples with a x + b y = g = gcd(a, b): the
        cofactors of the classical extended Euclid loop, of least degree,
        scaled with g to make g monic (gcd(0, 0) = 0 * 1 + 0 * 0)."""
        M = [[self.one], [], [], [self.one]]
        g = _euclid(a, b, self, M)
        return self._monic(g, M[0], M[1])

    def _monic(self, g, *cofactors):
        vs = (g, *cofactors)
        if g and g[-1] != self.one:
            u = [self.invert(g[-1])]
            vs = [self.mul(u, v) for v in vs]
        return tuple(map(tuple, vs))


class IntKernel(Kernel):
    """Z/n (n > 0), coefficients in range(n), or Z (n == 0)."""

    zero, one = 0, 1

    def __init__(self, n):
        self.n, self.memo = n, [None, None]

    def mul(self, a, b, keep=None):
        """One pass when a factor has one coefficient, the schoolbook loop
        on ints while the shorter factor is below KRONECKER_MIN, else
        kron_mul."""
        n = self.n
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            c, a = b[0], a[:keep]
            return [c * x % n for x in a] if n else [c * x for x in a]
        if len(b) >= KRONECKER_MIN:
            return kron_mul(a, b, n, keep)
        if not b:
            return []
        m = len(a) + len(b) - 1
        keep = m if keep is None else min(keep, m)
        out = [0] * keep
        for i, c in enumerate(b[:keep]):
            if c:
                for j, x in enumerate(a[:keep - i], i):
                    out[j] += c * x
        return [x % n for x in out] if n else out

    def add(self, a, b):
        n = self.n
        s = itertools.zip_longest(a, b, fillvalue=0)
        return _trim([(x + y) % n for x, y in s] if n
                     else [x + y for x, y in s])

    def sub(self, a, b):
        n = self.n
        s = itertools.zip_longest(a, b, fillvalue=0)
        return _trim([(x - y) % n for x, y in s] if n
                     else [x - y for x, y in s])

    def neg(self, a):
        n = self.n
        return [-x % n for x in a] if n else [-x for x in a]

    def invert(self, c):
        if self.n:
            return pow(c, -1, self.n) if math.gcd(c, self.n) == 1 else None
        return c if c in (1, -1) else None

    def seed(self, f, prec, u):
        """The first NEWTON_MIN coefficients, by the recurrence g_h = -u
        (f_1 g_(h-1) + ... + f_h g_0)."""
        n = self.n
        g = [u]
        for h in range(1, min(prec, NEWTON_MIN)):
            c = -u * sum(map(operator.mul, f[1:h + 1], g[::-1]))
            g.append(c % n if n else c)
        return g

    def divmod(self, a, b, memo=True):
        """As Kernel.divmod once quotient and divisor both have NEWTON_MIN
        coefficients (with a short divisor the O(len(q) len(b)) loop stays
        cheaper at any quotient length), else over F_p by short division,
        one list comprehension per quotient coefficient."""
        m = len(a) - len(b) + 1
        if m >= NEWTON_MIN and len(b) >= NEWTON_MIN:
            return super().divmod(a, b, memo)
        if m <= 0:
            return [], a
        p = self.n
        db = len(b) - 1
        inv = pow(b[-1], -1, p)
        r = list(a)
        q = [0] * m
        for k in range(m - 1, -1, -1):
            c = r[k + db] * inv % p
            if c:
                q[k] = c
                r[k:k + db] = [(x - c * y) % p for x, y in zip(r[k:k + db], b)]
        return q, _trim(r[:db])

    # kept beside Kernel.submul: dense ran 4-7 % slower without (BENCH_17.json)
    def submul(self, u, q, v):
        """u - q v: one pass per coefficient of q while q is the shorter
        factor and below KRONECKER_MIN, as in a remainder step."""
        if len(q) >= KRONECKER_MIN or len(q) > len(v):
            return super().submul(u, q, v)
        n = len(v)
        out = list(u) + [0] * (len(q) + n - 1 - len(u))
        for i, c in enumerate(q):
            if c:
                out[i:i + n] = [x - c * y for x, y in zip(out[i:i + n], v)]
        return _trim([x % self.n for x in out])


# -- F_2[x] on ints: bit i of an int is the coefficient of x^i

_ASCII = bytes.maketrans(b"\0\1", b"01")
_BITS = bytes.maketrans(b"01", b"\0\1")


def _to_int(a):
    """A list of 0/1, ascending, as an int."""
    return int(bytes(a[::-1]).translate(_ASCII) or b"0", 2)


def _to_list(x):
    return list(bin(x)[:1:-1].encode().translate(_BITS)) if x else []


def _clmul(a, b):
    """The carry-less product: shift-and-XOR over the shorter's bits."""
    if a.bit_length() > b.bit_length():
        a, b = b, a
    out = 0
    for i, c in enumerate(bin(a)[:1:-1]):
        if c == "1":
            out ^= b << i
    return out


def _rem(a, b):
    """a mod b, b != 0, by a ^= b << s."""
    db = b.bit_length()
    s = a.bit_length() - db
    while s >= 0:
        a ^= b << s
        s = a.bit_length() - db
    return a


def _divmod2(a, b):
    """(q, r) of a by b != 0: _rem's loop, with q the sum of the x^s
    (gcd and powmod keep to _rem, which takes a third less time)."""
    q, db = 0, b.bit_length()
    s = a.bit_length() - db
    while s >= 0:
        q |= 1 << s
        a ^= b << s
        s = a.bit_length() - db
    return q, a


class F2Kernel(IntKernel):
    """Z/2 with IntKernel's list interface, mul, add, neg and series
    inverse: divmod, gcd, xgcd and powmod convert each operand once to
    an int and run by shift-and-XOR (von zur Gathen and Gerhard, ch. 14),
    which beats the Newton division at every degree, so there is no
    memo; a square is a bit spread."""

    def __init__(self):
        super().__init__(2)

    def divmod(self, a, b, memo=True):
        q, r = _divmod2(_to_int(a), _to_int(b))
        return _to_list(q), _to_list(r)

    def powmod(self, a, e, f):
        f = _to_int(f)
        a = out = _rem(_to_int(a), f)
        for bit in bin(e)[3:]:
            out = _rem(int("0".join(bin(out)[2:]), 2), f)
            if bit == "1":
                out = _rem(_clmul(out, a), f)
        return _to_list(out)

    def gcd(self, a, b):
        a, b = _to_int(a), _to_int(b)
        while b:
            a, b = b, _rem(a, b)
        return tuple(_to_list(a))

    def xgcd(self, a, b):
        """The classical loop: its cofactors are the ones Kernel.xgcd
        gives."""
        a, b = _to_int(a), _to_int(b)
        s0, t0, s1, t1 = 1, 0, 0, 1
        while b:
            q, r = _divmod2(a, b)
            a, b = b, r
            s0, t0, s1, t1 = s1, t1, s0 ^ _clmul(q, s1), t0 ^ _clmul(q, t1)
        return tuple(tuple(_to_list(v)) for v in (a, s0, t0))


def int_kernel(n):
    """The kernel of Z/n, or of Z for n = 0: F2Kernel for n = 2."""
    return F2Kernel() if n == 2 else IntKernel(n)


class TowerKernel(Kernel):
    """F_p[y]/(m), m monic of degree k >= 1 over the prime p: remainders
    mod m as tuples of ints in range(p), no trailing zeros, which add
    coefficientwise.  Built once per ring with what mul needs: 1/rev(m)
    mod y^(k-1) and rev(-m mod p), rev reversing the coefficient order."""

    zero, one = (), (1,)

    def __init__(self, p, m):
        k = len(m) - 1
        self.p, self.m, self.k, self.memo = p, m, k, [None, None]
        self.fp = int_kernel(p)
        self.rinv = self.fp.inverse(m[::-1], k - 1) if k > 1 else []
        self.rneg = [-c % p for c in reversed(m)]

    def mul(self, a, b, keep=None):
        """Two-level Kronecker substitution (von zur Gathen and Gerhard,
        8.4): coefficient i of a factor goes reversed into the low k of
        the 2k - 1 slots of block i, so one product of two ints leaves in
        block h the reverse of c_h = sum a_i b_(h-i), of degree <= 2k - 2
        in y, with unreduced coefficients.  A packed Barrett step then
        reduces every block mod m at once: the low k - 1 slots of a block
        (the degrees >= k) times 1/rev(m) give the reversed quotient of
        c_h by m there, and adding that times rev(-m mod p) leaves c_h mod
        m in the high k slots, up to multiples of p.  No slot goes
        negative, and the slot width holds the largest value of that last
        step.  Listed from the top slot down, each block holds its
        coefficient in ascending order, so the slots are packed and read
        in that order."""
        p, k = self.p, self.k
        if len(a) < len(b):
            a, b = b, a
        n = len(a) + len(b) - 1
        keep = n if keep is None else min(keep, n)
        if not b or keep <= 0:
            return []
        square = a is b
        a, b = a[:keep], b[:keep]
        s = 2 * k - 1
        d = (k - 1) * (p - 1)
        w = _width((len(b) * k * (p - 1) ** 2 * (1 + d * d)).bit_length())
        pa = _tower_pack(a, k, w)
        c = pa * (pa if square else _tower_pack(b, k, w))
        if k > 1:
            mask = int.from_bytes(
                (b"\xff" * (w * (k - 1)) + bytes(w * k)) * keep, "little")
            q = (c & mask) * _pack(self.rinv, w) & mask
            c += q * _pack(self.rneg, w)
        x = _unpack(c, w, (len(a) + len(b) - 1) * s, keep * s)[::-1]
        return [tuple(_trim([v % p for v in x[i:i + k]]))
                for i in range((keep - 1) * s, -1, -s)]

    def add(self, a, b):
        p = self.p
        return _trim([
            tuple(_trim([(x + y) % p for x, y in
                         itertools.zip_longest(u, v, fillvalue=0)]))
            for u, v in itertools.zip_longest(a, b, fillvalue=())])

    def neg(self, a):
        p = self.p
        return [tuple([-x % p for x in c]) for c in a]

    def invert(self, c):
        g, x, _ = self.fp.xgcd(c, self.m)
        return x if g == (1,) else None


def _tower_pack(a, k, w):
    """a as TowerKernel.mul lays it out.  Listed from the top slot down:
    each coefficient c in ascending order and 2k - 1 - len(c) zeros, less
    the last k - 1 zeros, which puts c reversed in the low k slots of its
    block."""
    z = [0] * (2 * k - 1)
    flat = []
    for c in reversed(a):
        flat += c
        flat += z[len(c):]
    del flat[len(flat) - k + 1:]
    flat.reverse()
    return _pack(flat, w)


class LoopKernel(Kernel):
    """Any other base, one base call per coefficient operation: schoolbook
    product and division, untrimmed sums and negatives, and the series
    inverse whole by its recurrence, so Kernel.inverse takes no Newton
    step.  euclid_kernel() never returns it: no gcd, xgcd or powmod."""

    def __init__(self, base):
        self.base, self.invert = base, base.try_inverse

    def trim(self, c):
        while c and self.base.is_zero(c[-1]):
            c.pop()
        return c

    def mul(self, a, b, keep=None):
        base = self.base
        m = len(a) + len(b) - 1 if a and b else 0
        keep = m if keep is None else min(keep, m)
        out = [base.zero] * keep
        for i, x in enumerate(a[:keep]):
            if base.is_zero(x):
                continue
            for j, y in enumerate(b[:keep - i]):
                out[i + j] = base.add(out[i + j], base.mul(x, y))
        return out

    def add(self, a, b):
        base = self.base
        return [base.add(x, y)
                for x, y in itertools.zip_longest(a, b, fillvalue=base.zero)]

    def neg(self, a):
        return [self.base.neg(c) for c in a]

    def seed(self, f, prec, u):
        """All prec coefficients, g_n = -u (f_1 g_(n-1) + ... + f_n g_0)."""
        base = self.base
        g = [u]
        for n in range(1, prec):
            s = base.zero
            for x, y in zip(f[1:n + 1], g[::-1]):
                s = base.add(s, base.mul(x, y))
            g.append(base.neg(base.mul(u, s)))
        return g

    def divmod(self, a, b, memo=True):
        """The schoolbook loop, b's leading coefficient a unit."""
        base = self.base
        lead = base.one if base.eq(b[-1], base.one) else base.inverse(b[-1])
        db = len(b) - 1
        q = [base.zero] * max(len(a) - db, 0)
        r = list(a)
        while len(r) > db:
            k = len(r) - 1 - db
            q[k] = c = base.mul(r[-1], lead)
            for i, bc in enumerate(b):
                r[k + i] = base.sub(r[k + i], base.mul(c, bc))
            self.trim(r)
        return self.trim(q), r


def base_kernel(base):
    """The kernel PolyRing and SeriesRing over base hand their arithmetic
    to: base.kernel(), else a LoopKernel."""
    return base.kernel() or LoopKernel(base)


def prime_kernel(ctx):
    """ctx's Euclid kernel when it is F_p itself (over Fp:p or Quot(Z,
    p)), else None: the DDF, which computes x^p, not x^q, and the towers
    F_p[y]/(m) run on this one alone."""
    K = ctx.euclid_kernel()
    return K if isinstance(K, IntKernel) else None


# -- the Euclidean remainder sequence over any kernel of a field, as
#    transition matrices [s0, t0, s1, t1] (rows (s0, t0) and (s1, t1))

def _dot(u, v, a, b, K):
    return K.add(K.mul(u, a), K.mul(v, b))


def _matmul(S, R, K):
    a, b, c, d = S
    e, f, g, h = R
    return [_dot(a, b, e, g, K), _dot(a, b, f, h, K),
            _dot(c, d, e, g, K), _dot(c, d, f, h, K)]


def _euclid_steps(a, b, M, K, stop):
    """Remainder steps (a, b) -> (b, a mod b) while len(b) > stop, each
    applied to the rows of M, (M0, M1) -> (M1, M0 - q M1), unless M is
    None.  Returns the last pair."""
    while len(b) > stop:
        q, r = K.divmod(a, b, False)
        a, b = b, r
        if M is not None:
            s0, t0, s1, t1 = M
            M[:] = s1, t1, K.submul(s0, q, s1), K.submul(t0, q, t1)
    return a, b


def _hgcd(a, b, K):
    """(M, c, d) for len(a) >= len(b): M = [s0, t0, s1, t1] is the
    product of the remainder steps that take (a, b) to the first pair
    (c, d) = (s0 a + t0 b, s1 a + t1 b) with deg d < m = ceil(deg a / 2).

    The steps that reach below m depend only on the coefficients of
    degree >= m, so the first recursive call runs on a // x^m, b // x^m;
    one step more and a second call of the same kind on the pair it
    leaves finish the job (Thull-Yap).  Below HGCD_MIN coefficients the
    remainder loop runs instead."""
    m = len(a) // 2
    M = [[K.one], [], [], [K.one]]
    if len(b) <= m:
        return M, a, b
    if len(a) < HGCD_MIN:
        return (M, *_euclid_steps(a, b, M, K, m))
    R, c, d = _hgcd_above(a, b, m, K)
    if len(d) <= m:
        return R, c, d
    c, d = _euclid_steps(c, d, R, K, len(d) - 1)
    S, c, d = _hgcd_above(c, d, 2 * m - len(c) + 1, K)
    return _matmul(S, R, K), c, d


def _hgcd_above(a, b, k, K):
    """(M, M (a, b)) for the half-gcd (M, c, d) of a // x^k and b // x^k:
    M (a, b) = x^k (c, d) + M (a mod x^k, b mod x^k)."""
    M, c, d = _hgcd(a[k:], b[k:], K)
    a0, b0 = _trim(a[:k]), _trim(b[:k])
    z = [K.zero] * k
    return (M, K.add(z + c, _dot(M[0], M[1], a0, b0, K)),
            K.add(z + d, _dot(M[2], M[3], a0, b0, K)))


def _euclid(a, b, K, M):
    """The last nonzero remainder of Euclid's sequence on (a, b), with
    M, unless None, multiplied by that sequence's transition matrix."""
    a, b = list(a), list(b)
    start = GCD_HGCD_MIN if M is None else HGCD_MIN
    while b:
        if len(b) < start:
            a, b = _euclid_steps(a, b, M, K, 0)
        elif len(b) <= len(a) // 2 or len(a) < len(b):
            # the half-gcd takes no step here; one remainder step does
            a, b = _euclid_steps(a, b, M, K, len(b) - 1)
        else:
            T, a, b = _hgcd(a, b, K)
            if M is not None:
                M[:] = _matmul(T, M, K)
    return a


class PolyRing(OverBase):
    """Polynomials base[x] as a ring context."""

    def __init__(self, base):
        super().__init__(base)
        self.base_kernel = base_kernel(base)

    def _key(self):
        return ("Poly", self.base)

    def name(self):
        return f"Poly({self.base.name()})"

    @property
    def level(self):
        # a property, so a quotient base decides primality only when asked;
        # the base's level is read once, which keeps nested rings linear
        level = self.base.level
        return EUCLIDEAN if level >= FIELD else min(level, DOMAIN)

    def _strip(self, coeffs):
        return tuple(self.base_kernel.trim(list(coeffs)))

    def lift(self, c):
        return self._strip((c,))

    @property
    def zero(self):
        return ()

    @property
    def gen(self):
        return Element(self, self._strip((self.base.zero, self.base.one)))

    def canon(self, raw):
        if isinstance(raw, Element):
            raise RingError("payloads are raw coefficient sequences")
        try:
            coeffs = tuple(raw)
        except TypeError:
            raise RingError(f"expected a coefficient sequence, got {raw!r}")
        return self._strip([self.base.canon(c) for c in coeffs])

    def add(self, a, b):
        K = self.base_kernel
        return tuple(K.trim(K.add(a, b)))

    def neg(self, a):
        return tuple(self.base_kernel.neg(a))

    def mul(self, a, b):
        K = self.base_kernel
        return tuple(K.trim(K.mul(a, b)))

    def eq(self, a, b):
        return len(a) == len(b) and all(
            self.base.eq(x, y) for x, y in zip(a, b))

    def hash_payload(self, a):
        return hash(tuple(self.base.hash_payload(c) for c in a))

    def try_inverse(self, a):
        return polynomial_inverse(self, a, a[0], a[1:]) if a else None

    def is_nilpotent(self, a):
        return all(self.base.is_nilpotent(c) for c in a)

    def cardinality(self):
        return 1 if self.base.cardinality() == 1 else None

    def elements(self):
        if self.cardinality() == 1:
            return iter([()])
        raise InfiniteRing(f"{self.name()} is not finite")

    def divmod_(self, a, b):
        if not self.base.is_field:
            raise ContextNotEuclidean(
                f"division with remainder in {self.name()} needs field "
                "coefficients")
        if not b:
            raise DivisionByZero("division by zero polynomial")
        return tuple(map(tuple, self.base_kernel.divmod(a, b)))

    def euclid_kernel(self):
        return self.base.kernel() if self.base.is_field else None

    def canon_unit(self, a):
        if not self.base.is_field:
            raise ContextNotEuclidean(
                f"no canonical associate in {self.name()}")
        return self.lift(self.base.inverse(a[-1])) if a else self.one

    # -- residue hooks for Quot(base[x], m), m monic of degree >= 1

    def residue_count(self, m):
        q = self.base.cardinality()
        return None if q is None else q ** (len(m) - 1)

    def residues(self, m):
        pool = list(self.base.elements())
        return (self._strip(tup[::-1])
                for tup in itertools.product(pool, repeat=len(m) - 1))

    def residue_characteristic(self, m):
        return self.characteristic()

    def residue_kernel(self, m):
        K = prime_kernel(self)
        return None if K is None else TowerKernel(K.n, m)

    def is_prime_element(self, m):
        """Degree 1 is prime, any other m when factor's irreducibility
        pipeline, asked only where it has a test, proves it irreducible."""
        if len(m) == 2:
            return True
        from . import factor

        return factor.has_irreducibility_test(self) and \
            factor.irreducibility_pipeline(Element(self, m)).is_irreducible

    def radical(self, m):
        """The product of the distinct prime factors of m, found without
        factoring it: over F_p the first distinct-degree group of each
        degree (no equal-degree split), m / gcd(m, m') in characteristic
        0; None over any other base."""
        if prime_kernel(self):
            from .factor import radical_fp

            return radical_fp(self, m)
        if self.characteristic() != 0:
            return None
        from .euclid import gcd_payload

        return self.divmod_(
            m, gcd_payload(self, m, derivative(Element(self, m)).val))[0]

    def symbols(self):
        return {**super().symbols(), "x": self.gen.val}

    def literal(self, text):
        """A coefficient list [c0,c1,...]."""
        from .parsing import group_items

        items = group_items(text)
        if items is None:
            return None
        return self._strip([self.base.parse(p) for p in items])

    def show(self, a):
        """As poly_show, or the coefficient list when the base has a
        symbol x of its own, which the generator would shadow."""
        if a and "x" in self.base.symbols():
            return "[" + ",".join(self.base.show(c) for c in a) + "]"
        return poly_show(self.base, a)


def x_power(e):
    """The monomial text of x^e: "" for e = 0, "x" for e = 1."""
    return "" if e == 0 else "x" if e == 1 else f"x^{e}"


def poly_show(base, coeffs):
    """Compact pretty form, highest degree first, reparseable."""
    if not coeffs:
        return "0"
    return show_terms(base, (
        (x_power(k), coeffs[k]) for k in range(len(coeffs) - 1, -1, -1)
        if not base.is_zero(coeffs[k])))


_NOT_POLY = "expected a polynomial element, got {!r}"


def degree(p):
    """Degree of a polynomial element; NEG_INF for the zero polynomial."""
    context_of(p, PolyRing, _NOT_POLY)
    return len(p.val) - 1 if p.val else NEG_INF


def leading_coefficient(p):
    ctx = context_of(p, PolyRing, _NOT_POLY)
    if not p.val:
        raise ZeroPolynomial("the zero polynomial has no leading coefficient")
    return Element(ctx.base, p.val[-1])


def poly_eval(p, point):
    """Left-substitution p(point): coefficients stay left of the powers."""
    base = context_of(p, PolyRing, _NOT_POLY).base
    return Element(base, horner(base, p.val, payload_in(base, point)))


def horner(base, coeffs, r):
    """sum(c_k r^k) in base, by Horner's rule, r right of each partial sum."""
    acc = base.zero
    for c in reversed(coeffs):
        acc = base.add(base.mul(acc, r), c)
    return acc


def derivative(p):
    ctx = context_of(p, PolyRing, _NOT_POLY)
    base = ctx.base
    out = [int_scale_payload(base, i, c) for i, c in enumerate(p.val)][1:]
    return Element(ctx, ctx._strip(out))


def divrem_scaled(f, g):
    """Fraction-free division: returns (m, q, r) with lc(g)^m * f = q*g + r.

    The exponent m counts only the steps actually taken, so it is as
    small as this one-step-at-a-time scheme allows; deg r < deg g on
    return.  Needs a commutative coefficient ring and g != 0.
    """
    ctx = context_of(f, PolyRing, _NOT_POLY)
    if g.ctx != ctx:
        raise RingError("operands live in different polynomial rings")
    if not ctx.base.is_commutative:
        raise RingError("scaled division needs commutative coefficients")
    if not g.val:
        raise DivisionByZero("division by zero polynomial")
    base = ctx.base
    b = ctx.lift(g.val[-1])
    dg = len(g.val) - 1
    q, r, m = (), f.val, 0
    while r and len(r) - 1 >= dg:
        t = ctx._strip([base.zero] * (len(r) - 1 - dg) + [r[-1]])
        q = ctx.add(ctx.mul(b, q), t)
        r = ctx.sub(ctx.mul(b, r), ctx.mul(t, g.val))
        m += 1
    return m, Element(ctx, q), Element(ctx, r)


def divrem_field(f, g):
    """Division with remainder over field coefficients."""
    ctx = context_of(f, PolyRing, _NOT_POLY)
    if g.ctx != ctx:
        raise RingError("operands live in different polynomial rings")
    if not ctx.base.is_field:
        raise NotAField(f"{ctx.base.name()} is not a field")
    q, r = ctx.divmod_(f.val, g.val)
    return Element(ctx, q), Element(ctx, r)


def factor_theorem_split(p, a):
    """Quotient p / (x - a) when a is a root; synthetic division is exact."""
    ctx = context_of(p, PolyRing, _NOT_POLY)
    base = ctx.base
    r = payload_in(base, a)
    if not p.val:
        raise ZeroPolynomial("cannot split the zero polynomial")
    out = []
    acc = base.zero
    for c in reversed(p.val):
        acc = base.add(base.mul(acc, r), c)
        out.append(acc)
    rem = out.pop()
    if not base.is_zero(rem):
        raise NotARoot(f"{base.show(r)} is not a root")
    out.reverse()
    return Element(ctx, ctx._strip(out))


def roots_over_finite(p):
    """All roots in a finite coefficient ring, by exhaustion."""
    ctx = context_of(p, PolyRing, _NOT_POLY)
    if not p.val:
        raise ZeroPolynomial("every element is a root of the zero polynomial")
    if not ctx.base.is_finite:
        raise InfiniteRing(f"{ctx.base.name()} is not finite")
    base = ctx.base
    return [Element(base, r) for r in base.elements()
            if base.is_zero(horner(base, p.val, r))]


def lagrange_interpolate(base, points):
    """Least-degree polynomial through the given (node, value) pairs.

    Nodes must be distinct elements of the coefficient field; the result
    has degree < len(points) and is unique with that bound.
    """
    if not base.is_field:
        raise NotAField(f"{base.name()} is not a field")
    ctx = PolyRing(base)
    nodes, values = [], []
    for x, y in points:
        xv, yv = payload_in(base, x), payload_in(base, y)
        for seen in nodes:
            if base.eq(seen, xv):
                raise DuplicateNode(f"repeated node {base.show(xv)}")
        nodes.append(xv)
        values.append(yv)
    total = ()
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        num, den = ctx.one, base.one
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            num = ctx.mul(num, (base.neg(xj), base.one))
            den = base.mul(den, base.sub(xi, xj))
        scale = base.mul(yi, base.inverse(den))
        total = ctx.add(total, ctx.mul(ctx.lift(scale), num))
    return Element(ctx, total)


def poly_ring(base):
    return PolyRing(base)
