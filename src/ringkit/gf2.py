"""Characteristic 2 on packed ints: F_2[x] (F2Kernel) and GF(2^k)[x],
the polynomials over F_2[y]/(m) for m of degree k (GF2kKernel).

A polynomial is one int.  Over F_2 bit i is the coefficient of x^i.
Over F_2[y]/(m) coefficient i, itself an int whose bit j is the
coefficient of y^j, sits in bits [iW, iW + W) with W = 2k - 1, so F_2 is
the case k = 1, W = 1.  A sum is XOR, and the carry-less product of two
such ints leaves in each slot a sum of products of two coefficients, of
degree at most 2k - 2: no slot spills into the next, and one packed
reduction takes every slot mod m at once (GF2kKernel.reduce).

Division, Euclid's gcd and xgcd, and powers mod f run on these ints by
shift-and-XOR (von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 14), with one conversion in and one out per kernel call; products,
sums, negatives and the series inverse keep the list interface of
IntKernel(2) and TowerKernel(2, m).  The classical remainder loop beats
poly's Newton division and half-gcd here at every degree measured (to
4,000 over GF(2^8)), so neither runs in characteristic 2.
"""

from .poly import IntKernel, TowerKernel

# coefficient inverses a GF2kKernel keeps: all of them for k <= 12
INVERSES_KEPT = 4096

_UNSET = object()

_ASCII = bytes.maketrans(b"\0\1", b"01")
_BITS = bytes.maketrans(b"01", b"\0\1")


def _to_int(a):
    """A list of 0/1, ascending, as an int."""
    return int(bytes(a).translate(_ASCII)[::-1] or b"0", 2)


def _to_list(x, kind=list):
    """An int as its list of 0/1, ascending, or as another kind."""
    return kind(bin(x)[:1:-1].encode().translate(_BITS)) if x else kind()


def _clmul(a, b):
    """The carry-less product: shift-and-XOR over the shorter's bits."""
    if a.bit_length() > b.bit_length():
        a, b = b, a
    out = 0
    for i, c in enumerate(bin(a)[:1:-1]):
        if c == "1":
            out ^= b << i
    return out


def _spread(x):
    """The carry-less square: bit i moves to bit 2i."""
    return int("0".join(bin(x)[2:]), 2)


def _rem(a, b):
    """a mod b over F_2, b != 0, by a ^= b << s."""
    db = b.bit_length()
    s = a.bit_length() - db
    while s >= 0:
        a ^= b << s
        s = a.bit_length() - db
    return a


def _divmod2(a, b):
    """(q, r) of a by b != 0 over F_2: _rem's loop, with q the sum of the
    x^s (gcd and powmod keep to _rem, which takes a third less time)."""
    q, db = 0, b.bit_length()
    s = a.bit_length() - db
    while s >= 0:
        q |= 1 << s
        a ^= b << s
        s = a.bit_length() - db
    return q, a


def _gcd(a, b, rem):
    """The last nonzero remainder of Euclid's loop on packed ints, rem
    the ring's remainder."""
    while b:
        a, b = b, rem(a, b)
    return a


def _xgcd(a, b, divmod_, mul):
    """(g, x) of the classical extended Euclid loop on packed ints, with
    divmod_ and mul those of the ring: g the last nonzero remainder and
    x, of least degree, the cofactor of a, a x = g mod b."""
    x0, x1 = 1, 0
    while b:
        q, r = divmod_(a, b)
        a, b = b, r
        x0, x1 = x1, x0 ^ mul(q, x1)
    return a, x0


def _bezout(a, b, divmod_, mul):
    """(g, x, y), a x + b y = g: _xgcd's g and x, and y = (g - a x) / b by
    one exact division (0 for b = 0), so the loop carries x alone."""
    g, x = _xgcd(a, b, divmod_, mul)
    return g, x, divmod_(g ^ mul(a, x), b)[0] if b else 0


def _powmod(a, e, f, rem, square, mul):
    """a^e mod f on packed ints, e >= 1: left-to-right square and
    multiply."""
    a = out = rem(a, f)
    for bit in bin(e)[3:]:
        out = rem(square(out), f)
        if bit == "1":
            out = rem(mul(out, a), f)
    return out


class F2Kernel(IntKernel):
    """Z/2 with IntKernel's list interface, mul, add, neg and series
    inverse: divmod, gcd, xgcd and powmod convert each operand once to
    an int, bit i the coefficient of x^i, and run the loops above, with
    a bit spread for a square; every divisor is monic."""

    def __init__(self):
        super().__init__(2)

    def divmod(self, a, b, memo=True):
        q, r = _divmod2(_to_int(a), _to_int(b))
        return _to_list(q), _to_list(r)

    def powmod(self, a, e, f):
        return _to_list(_powmod(_to_int(a), e, _to_int(f), _rem, _spread,
                                _clmul))

    def gcd(self, a, b):
        return _to_list(_gcd(_to_int(a), _to_int(b), _rem), tuple)

    def xgcd(self, a, b):
        return tuple(_to_list(v, tuple) for v in
                     _bezout(_to_int(a), _to_int(b), _divmod2, _clmul))


class GF2kKernel(TowerKernel):
    """F_2[y]/(m), m of degree k >= 1: TowerKernel(2, m)'s tuples of 0/1,
    with its products, sums, negatives and series inverse; division,
    gcd, xgcd and powmod run the loops above on packed ints, slots of W =
    2k - 1 bits, and the inverse of a coefficient is the extended gcd of
    two ints over F_2.  The kernel keeps its last divisor with what
    dividing by it needs, so a chain of reductions mod one f (powmod)
    prepares it once."""

    def __init__(self, m):
        super().__init__(2, m)
        self.W = 2 * self.k - 1
        self.mint = _to_int(m)
        self.pad = bytes(self.W)
        self.span, self.masks = 0, []
        self.inverses = {}

    def pack(self, a):
        """A list of coefficients as one int, coefficient i in slot i."""
        pad = self.pad
        s = b"".join([bytes(c) + pad[len(c):] for c in a])
        return int(s[::-1].translate(_ASCII) or b"0", 2)

    def unpack(self, x):
        """pack reversed, for x with every slot reduced."""
        if not x:
            return []
        k = self.k
        s = bin(x)[:1:-1].encode().translate(_BITS)
        return [tuple(s[i:i + k].rstrip(b"\0"))
                for i in range(0, len(s), self.W)]

    def _masks(self, bits):
        """R << t for t = 2k - 2 down to k, R the repunit with a 1 at the
        bottom of each slot, long enough for ints of that many bits."""
        if bits > self.span:
            W = self.W
            slots = 2 * bits // W + 1
            R = int(("0" * (W - 1) + "1") * slots, 2)
            self.span = slots * W
            self.masks = [R << t for t in range(W - 1, self.k - 1, -1)]
        return self.masks

    def reduce(self, x):
        """x with every slot, of degree <= 2k - 2, taken mod m: for each
        bit t from 2k - 2 down to k, each slot whose bit t is set gains m
        y^(t - k), which clears it.  These copies of m, k + 1 bits each and
        W apart, never overlap, so one product of ints places them all."""
        k, m = self.k, self.mint
        for mask in self._masks(x.bit_length()):
            x ^= ((x & mask) >> k) * m
        return x

    def imul(self, a, b):
        return self.reduce(_clmul(a, b))

    def isquare(self, a):
        # in characteristic 2 the square of sum c_i x^i is sum c_i^2 x^2i,
        # and the bit spread takes coefficient i, squared, to slot 2i
        return self.reduce(_spread(a))

    def inverse_int(self, c):
        """1/c mod m for a k-bit int c, or None when c is not a unit.  The
        kernel keeps the answers for the first INVERSES_KEPT coefficients
        asked: every Euclid step and every division asks one."""
        u = self.inverses.get(c, _UNSET)
        if u is _UNSET:
            g, x = _xgcd(c, self.mint, _divmod2, _clmul)
            u = x if g == 1 else None
            if len(self.inverses) < INVERSES_KEPT:
                self.inverses[c] = u
        return u

    def invert(self, c):
        u = self.inverse_int(_to_int(c))
        return None if u is None else _to_list(u, tuple)

    def _divisor(self, b):
        """(u, top, T) for b != 0: u = 1/lc(b), top the slot of lc(b), and
        T[j] = y^j u b reduced, for j < k."""
        if self.memo[0] != b:
            k = self.k
            top = (b.bit_length() - 1) // self.W
            u = self.inverse_int(b >> top * self.W)
            T = [b if u == 1 else self.imul(u, b)]
            if k > 1:
                mask, m = self._masks(b.bit_length() + 1)[-1], self.mint
                for _ in range(k - 1):
                    t = T[-1] << 1
                    T.append(t ^ ((t & mask) >> k) * m)
            self.memo[:] = b, (u, top, T)
        return self.memo[1]

    def _long_division(self, a, b):
        """(q, r, u) with a = q (u b) + r: long division by the monic u b,
        each quotient coefficient c the top one of the remainder, which
        loses c (u b) as the T[j] for the bits j of c."""
        W = self.W
        u, tb, T = self._divisor(b)
        q = 0
        ta = (a.bit_length() - 1) // W
        while ta >= tb:
            s = (ta - tb) * W
            c = a >> ta * W
            q ^= c << s
            for t, bit in zip(T, bin(c)[:1:-1]):
                if bit == "1":
                    a ^= t << s
            ta = (a.bit_length() - 1) // W
        return q, a, u

    def idivmod(self, a, b):
        q, r, u = self._long_division(a, b)
        return (q if u == 1 else self.imul(u, q)), r

    def irem(self, a, b):
        return self._long_division(a, b)[1]

    def monic(self, g, *vs):
        """g and vs times 1/lc(g), for g != 0; all unchanged for g = 0."""
        if g:
            top = (g.bit_length() - 1) // self.W
            u = self.inverse_int(g >> top * self.W)
            if u != 1:
                return [self.imul(u, v) for v in (g, *vs)]
        return [g, *vs]

    def divmod(self, a, b, memo=True):
        q, r = self.idivmod(self.pack(a), self.pack(b))
        return self.unpack(q), self.unpack(r)

    def powmod(self, a, e, f):
        return self.unpack(_powmod(self.pack(a), e, self.pack(f), self.irem,
                                   self.isquare, self.imul))

    def gcd(self, a, b):
        g = _gcd(self.pack(a), self.pack(b), self.irem)
        return tuple(self.unpack(self.monic(g)[0]))

    def xgcd(self, a, b):
        """The classical loop's g, made monic, and its cofactors of least
        degree, as Kernel.xgcd gives them (gcd(0, 0) = 0 * 1 + 0 * 0)."""
        vs = _bezout(self.pack(a), self.pack(b), self.idivmod, self.imul)
        return tuple(tuple(self.unpack(v)) for v in self.monic(*vs))
