"""Graded algebra elements and homogeneous locally nilpotent derivations.

A *carrier* records which monomial weights occur in a coordinate ring.  For
an affine toric variety the admissible weights are the lattice points of the
dual cone.  A complexity-one variety over A^1 or P^1 whose coefficient
divisor is supported in {0, infinity} is toric as well: its weights are
pairs (m, r), where m is a lattice weight and r the exponent of the
coordinate t on the base curve, and (m, r) is admissible exactly when the
flat weight m + (r,) lies in the dual of the lifted cone spanned by (g, 0),
(v, 1) and (w, -1), for g a tail generator, v a vertex at 0 and w a vertex
at infinity.  So ``CurveCarrier`` is a ``ToricCarrier`` of the lifted cone
that only keeps the (m, r) key shape.

One derivation class serves both.  A homogeneous derivation D shifts every
weight by a fixed degree e and scales the coefficient by the pairing q(m)
of the flat weight with a ray normal n; the horizontal derivation
t^r chi^m -> d (<v0, m> + r) t^(r+s) chi^(m+e) of the curve is the case
n = (d v0, d) and degree (e, s).  The constructor enforces <n, e> = -1, so
the multiplier drops by exactly one under the shift and

    D^k chi^m = q (q - 1) ... (q - k + 1) chi^(m + k e),
    exp(s D) chi^m = sum_{k=0}^{q} C(q, k) s^k chi^(m + k e),

and a monomial with q >= 0 is killed after exactly q + 1 steps.  The flows
below use this closed form, one pass per term and no iteration ceiling.
Every weight m + k e with 1 <= k <= q must be admissible; the first one
that is not raises WeightEscape.  A term with q < 0 is never killed: it
raises WeightEscape where its orbit leaves the carrier, and NotNilpotent
if it never does.

Elements built from outside input (``SemigroupElement(...)``) are frozen
and checked term by term; the results of derivations, flows and
arithmetic on elements of one carrier are built without a second check.
Every coefficient, scalar and time is read by ``as_fraction``, so a value
that is not a number raises InvalidInteger.

Products are integer convolutions (``_convolve``).  Each factor is held as
integer numerators over one denominator, and each flat weight k as the one
int sum k_i W^i, with W = 2B + 1 and B the sum over the factors of their
largest |coordinate|.  Every product weight then has |k_i| <= B < W / 2, so
its coordinates are its balanced base-W digits, which are unique: the
packing is injective on product weights, and packing is additive.  A pair
of terms then costs one int addition and one int product, and each
distinct weight is unpacked once (Monagan and Pearce, *Polynomial division
using dynamic arrays, heaps, and packed exponent vectors*, CASC 2007).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, mul

from .errors import (
    CurveMismatch,
    InvalidDivisor,
    InvalidInteger,
    NotARoot,
    NotNilpotent,
    RankMismatch,
    SchemaError,
    WeightEscape,
)
from .lattice import (Cone, as_fraction, as_instance, as_int, as_pairs,
                      as_tuple, dot)
from .roots import root_pairings


def lifted_cone(rank, tail_gens, vertices0, vertices_inf=()):
    """The cone over the base curve, in rank ``rank + 1``.

    It is spanned by (g, 0) for the tail generators g, (v, 1) for the
    vertices v at 0 and (w, -1) for the vertices w at infinity.
    """
    gens = [tuple(g) + (0,) for g in tail_gens]
    gens += [tuple(v) + (1,) for v in vertices0]
    gens += [tuple(w) + (-1,) for w in vertices_inf]
    return Cone(rank + 1, gens)


class ToricCarrier:
    """Monomial weights of the affine toric variety attached to a cone.

    A weight is admissible exactly when its flat form pairs nonnegatively
    with every generator of the cone, i.e. when it is a lattice point of
    the dual cone.  Here a weight is its own flat form; subclasses keep
    another key shape and override only the key arithmetic.
    """

    __slots__ = ("cone",)

    def __init__(self, cone):
        self.cone = as_instance(cone, Cone, "cone")

    @property
    def rank(self):
        return self.cone.rank

    def freeze(self, key):
        m = tuple(as_int(x) for x in as_tuple(key, "weight"))
        if len(m) != self.rank:
            raise RankMismatch(
                f"weight of length {len(m)} in ambient rank {self.rank}"
            )
        return m

    def flat(self, key):
        """The key as a weight of the cone's lattice."""
        return key

    def unflat(self, weight):
        """The key whose flat form is ``weight``, a tuple."""
        return weight

    def add_keys(self, a, b, k=1):
        """The weight a + k*b.

        Products, shifts and orbit walks take k = 1, one addition per
        coordinate; another k only names where an orbit escapes.
        """
        if k == 1:
            return tuple(map(add, a, b))
        return tuple(x + k * y for x, y in zip(a, b))

    def admits(self, key):
        m = self.flat(key)
        return all(dot(g, m) >= 0 for g in self.cone.gens)

    def first_exit(self, key, step):
        """Smallest k >= 1 with key + k*step not admissible, or None.

        Each generator g gives one inequality a + k*b >= 0 along the ray,
        with a = <g, key> and b = <g, step>.  With b < 0 it fails from
        k = floor(a / -b) + 1 on; with b >= 0 at most at k = 1.
        """
        m, e = self.flat(key), self.flat(step)
        steps = []
        for g in self.cone.gens:
            a, b = dot(g, m), dot(g, e)
            if b < 0:
                steps.append(max(a // -b + 1, 1))
            elif a + b < 0:
                steps.append(1)
        return min(steps, default=None)

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.cone.rank == other.cone.rank
                and self.cone.gens == other.cone.gens)

    __hash__ = None

    def __repr__(self):
        return f"ToricCarrier({self.cone!r})"


def _vertices(vertices):
    """A list of vertices as tuples of numbers; SchemaError when it or a
    vertex is not a sequence."""
    return tuple(tuple(map(as_fraction, as_tuple(v, "vertex")))
                 for v in as_tuple(vertices, "vertices"))


class CurveCarrier(ToricCarrier):
    """Monomial weights (m, r) over the base curve A^1 or P^1.

    ``tail`` is the common recession cone of the coefficient polyhedra and
    ``vertices0`` / ``vertices_inf`` are the vertices of the coefficients at
    t = 0 and t = infinity.  The pair (m, r) is admissible, i.e. t^r chi^m
    is a global section, when m lies in the dual of the tail cone and

        r >= -floor(<v, m>) for every vertex v at 0   and, over P^1,
        r <= floor(<w, m>) for every vertex w at infinity.

    As r is an integer these are the inequalities <v, m> + r >= 0 and
    <w, m> - r >= 0: the carrier is the toric carrier of ``lifted_cone``,
    read on keys (m, r) whose flat form is m + (r,).
    """

    __slots__ = ("curve", "tail", "vertices0", "vertices_inf")

    def __init__(self, curve, tail, vertices0, vertices_inf=None):
        if curve not in ("A1", "P1"):
            raise CurveMismatch("curve must be 'A1' or 'P1'")
        if curve == "P1" and not vertices_inf:
            raise CurveMismatch(
                "a carrier over P^1 needs vertices at infinity")
        if curve == "A1" and vertices_inf:
            raise CurveMismatch("vertices at infinity only occur over P^1")
        self.curve = curve
        self.tail = as_instance(tail, Cone, "tail")
        self.vertices0 = _vertices(vertices0)
        if not self.vertices0:
            raise InvalidDivisor("need at least one vertex at t = 0")
        self.vertices_inf = (
            _vertices(vertices_inf) if vertices_inf is not None else None
        )
        super().__init__(lifted_cone(
            tail.rank, tail.gens, self.vertices0, self.vertices_inf or ()
        ))

    @property
    def rank(self):
        return self.tail.rank

    def freeze(self, key):
        key = as_tuple(key, "weight")
        if len(key) != 2:
            raise SchemaError(f"weight: expected an (m, r) pair, got {key!r}")
        m, r = key
        return (super().freeze(m), as_int(r))

    def flat(self, key):
        m, r = key
        return m + (r,)

    def unflat(self, weight):
        return weight[:-1], weight[-1]

    def add_keys(self, a, b, k=1):
        (m, r), (e, s) = a, b
        if k == 1:
            return (tuple(map(add, m, e)), r + s)
        return (super().add_keys(m, e, k), r + k * s)

    def __repr__(self):
        return (f"CurveCarrier({self.curve!r}, tail={self.tail!r}, "
                f"vertices0={list(self.vertices0)}, "
                f"vertices_inf={self.vertices_inf and list(self.vertices_inf)})")


class SemigroupElement:
    """A finite linear combination of admissible monomials.

    ``terms`` maps frozen weight keys to nonzero Fraction coefficients.
    Addition of weights keeps the combination inside the carrier (the
    admissible weights form a semigroup), so products never escape.

    The constructor freezes and checks every term; it is the entry point
    for outside input.  Results computed from checked elements of one
    carrier come from ``_trusted`` instead.
    """

    __slots__ = ("carrier", "terms")

    def __init__(self, carrier, terms=()):
        as_instance(carrier, ToricCarrier, "carrier")
        data = {}
        for key, coeff in as_pairs(terms, "terms"):
            key = carrier.freeze(key)
            coeff = as_fraction(coeff)
            if not coeff:
                continue
            if not carrier.admits(key):
                raise WeightEscape(f"weight {key!r} is not admissible")
            data[key] = data.get(key, Fraction(0)) + coeff
        self.carrier = carrier
        self.terms = {k: c for k, c in data.items() if c}

    @classmethod
    def _trusted(cls, carrier, terms):
        """Wrap ``terms`` as they are: frozen admissible keys, each with a
        nonzero Fraction coefficient."""
        self = object.__new__(cls)
        self.carrier = carrier
        self.terms = terms
        return self

    def _combine(self, other, sign):
        if not isinstance(other, SemigroupElement):
            return NotImplemented
        _check_key_shapes(self.carrier, other.carrier)
        data = dict(self.terms)
        for k, c in other.terms.items():
            data[k] = data.get(k, Fraction(0)) + sign * c
        # sums can cancel
        return _computed(self.carrier, other.carrier,
                         {k: c for k, c in data.items() if c})

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return SemigroupElement._trusted(
            self.carrier, {k: -c for k, c in self.terms.items()}
        )

    def __rmul__(self, scalar):
        scalar = as_fraction(scalar)
        return SemigroupElement._trusted(
            self.carrier,
            {k: scalar * c for k, c in self.terms.items()} if scalar else {},
        )

    def __mul__(self, other):
        """The product, by one integer convolution of the factors'
        integer numerators on packed weights (``_convolve``, with the
        packing argument in the module docstring); each distinct weight
        is unpacked once.  The terms come in the order the double loop
        over the terms of (self, other) reaches their weights first.
        """
        if not isinstance(other, SemigroupElement):
            return self.__rmul__(other)
        _check_key_shapes(self.carrier, other.carrier)
        carrier = self.carrier
        bound, d, sums = _convolve(carrier, [
            integer_numerators(self.terms), integer_numerators(other.terms)])
        unflat, radix, n = carrier.unflat, 2 * bound + 1, carrier.cone.rank
        return _computed(carrier, other.carrier, {
            unflat(_unpack(p, radix, n)): Fraction(c, d)
            for p, c in sums.items()})

    def __pow__(self, n):
        n = as_int(n)
        if n < 1:
            # negative powers are not monomials, and the empty product has
            # no canonical weight here
            raise InvalidInteger(f"power {n} of an element; need n >= 1")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, SemigroupElement)
                and self.carrier == other.carrier
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return f"SemigroupElement({dict(sorted(self.terms.items()))!r})"


def integer_numerators(terms):
    """(d, {key: n}) with d the lcm of the denominators of the
    coefficients and each coefficient equal to n / d, in term order."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, {k: c.numerator * (d // c.denominator)
               for k, c in terms.items()}


def _powers(bound, n):
    """[W^0, ..., W^(n-1)] for the packing radix W = 2 bound + 1."""
    radix = 2 * bound + 1
    return [radix ** i for i in range(n)]


def _unpack(p, radix, n):
    """The n balanced base-``radix`` digits of p, lowest first: the flat
    weight k packed into p = sum k_i radix^i when every |k_i| < radix / 2."""
    half = radix // 2
    digits = []
    for _ in range(n):
        r = (p + half) % radix - half
        digits.append(r)
        p = (p - r) // radix
    return tuple(digits)


def _convolve(carrier, operands):
    """The product of integer images over ``carrier``, on packed weights.

    Each operand is (d, {key: n}), the element sum n/d chi^key.  Returns
    (B, d, {packed weight: n}): B, the sum over the operands of their
    largest |coordinate|, bounds every coordinate of a product weight (and
    of every partial product), so that with W = 2B + 1 the weights pack
    injectively (see the module docstring); d is the product of the
    denominators; the nonzero sums come in the order the loops over pairs
    of terms reach their weights first.
    """
    flat = carrier.flat
    flats = [[(flat(k), n) for k, n in nums.items()] for _, nums in operands]
    bound = sum(max(map(abs, chain.from_iterable(w for w, _ in op)),
                    default=0) for op in flats)
    powers = _powers(bound, carrier.cone.rank)
    d, acc = 1, {0: 1}
    for (den, _), op in zip(operands, flats):
        d *= den
        right = [(sum(map(mul, w, powers)), n) for w, n in op]
        sums = {}
        get = sums.get
        for p1, n1 in acc.items():
            for p2, n2 in right:
                p = p1 + p2
                sums[p] = get(p, 0) + n1 * n2
        acc = sums
    return bound, d, {p: n for p, n in acc.items() if n}


def is_product(carrier, image, factors):
    """Whether ``image`` is the product of ``factors``, all integer images
    (d, {key: n}) over ``carrier`` with nonzero numerators, compared as
    integers: no Fraction and no element is built.

    The product's weights are packed as in ``_convolve``, injectively
    (the module docstring).  A key of
    ``image`` with a coordinate beyond the bound B is no product weight,
    and its packing might alias one, so it fails at once.  The other keys
    are looked up by their packed weights, and a coefficient n / den of
    ``image`` equals the product's m / d when n d = m den.  As the packing
    is injective on these keys, equal term counts then make the two key
    sets one.
    """
    bound, d, sums = _convolve(carrier, factors)
    den, nums = image
    if len(nums) != len(sums):
        return False
    flats = [carrier.flat(k) for k in nums]
    if max(map(abs, chain.from_iterable(flats)), default=0) > bound:
        return False
    powers = _powers(bound, carrier.cone.rank)
    get = sums.get
    for w, n in zip(flats, nums.values()):
        m = get(sum(map(mul, w, powers)))
        if m is None or n * d != m * den:
            return False
    return True


def _check_key_shapes(a, b):
    """RankMismatch unless the keys of carriers a and b have one shape: a
    toric key is a weight m, a curve key a pair (m, r), and the flat
    weights of both have one length."""
    if type(a) is not type(b):
        raise RankMismatch(
            f"keys of a {type(a).__name__} and of a {type(b).__name__} "
            "have different shapes"
        )
    if a.cone.rank != b.cone.rank:
        raise RankMismatch(
            f"weights of ranks {a.cone.rank} and {b.cone.rank} do not add")


def _computed(carrier, source, data):
    """``data``, computed from elements of ``source``, as an element of
    ``carrier``.

    The keys are admissible already when the carriers agree (admissible
    weights form a semigroup); only then are the checks skipped, and the
    coefficients must then be nonzero already.
    """
    if source is carrier or source == carrier:
        return SemigroupElement._trusted(carrier, data)
    return SemigroupElement(carrier, data)


def monomial(carrier, key, coeff=1):
    return SemigroupElement(carrier, [(key, coeff)])


class HomogeneousLND:
    """A homogeneous derivation acting monomially on a carrier:

        chi^m  ->  <n, m> chi^(m+e),

    with m read in its flat form (``carrier.flat``) and the shift made by
    ``carrier.add_keys``.  For a toric carrier n is the primitive normal of
    the distinguished ray.  Over the base curve the same formula is the
    horizontal derivation chi^m t^r -> d (<v0, m> + r) chi^(m+e) t^(r+s),
    with n = (d*v0, d) (the distinguished ray of the lifted cone when d is
    the least common denominator of v0) and the degree the pair (e, s).
    The constructor checks <n, e> = -1, so the multiplier drops by exactly
    one under the weight shift (this is the defining property of a root),
    the derivation is locally nilpotent wherever the weights stay
    admissible, and the flows may use their closed form.  ``toric`` and
    ``horizontal`` also normalize and check their input.
    """

    __slots__ = ("carrier", "ray_normal", "e")

    def __init__(self, carrier, ray_normal, e):
        if dot(ray_normal, carrier.flat(e)) != -1:
            raise NotARoot("the degree must pair to -1 with the ray normal")
        self.carrier = carrier
        self.ray_normal = ray_normal
        self.e = e

    @classmethod
    def toric(cls, carrier, ray_normal, e):
        as_instance(carrier, ToricCarrier, "carrier")
        n = tuple(as_int(x) for x in as_tuple(ray_normal, "ray normal"))
        ee = tuple(as_int(x) for x in as_tuple(e, "degree"))
        if len(n) != carrier.rank or len(ee) != carrier.rank:
            raise RankMismatch("ray normal and degree must match the carrier")
        return cls(carrier, n, ee)

    @classmethod
    def horizontal(cls, carrier, v0, d, e, s):
        as_instance(carrier, ToricCarrier, "carrier")
        v = tuple(map(as_fraction, as_tuple(v0, "vertex")))
        d = as_int(d)
        ee = tuple(as_int(x) for x in as_tuple(e, "degree"))
        s = as_int(s)
        if len(v) != carrier.rank or len(ee) != carrier.rank:
            raise RankMismatch("vertex and degree must match the carrier")
        if d < 1:
            raise InvalidInteger("d must be a positive integer")
        if any((d * x).denominator != 1 for x in v):
            raise InvalidInteger("d must clear the denominators of v0")
        return cls(carrier, tuple(int(d * x) for x in v) + (d,), (ee, s))

    def multiplier(self, key):
        return dot(self.ray_normal, self.carrier.flat(key))

    def shift(self, key):
        return self.carrier.add_keys(key, self.e)

    def __repr__(self):
        return f"HomogeneousLND(n={self.ray_normal}, e={self.e})"


def toric_lnd(cone, e):
    """The homogeneous derivation attached to a root of a pointed cone."""
    ee = tuple(as_int(x) for x in as_tuple(e, "degree"))
    rays = as_instance(cone, Cone, "cone").rays()
    vals, neg = root_pairings(rays, ee)
    # the first ray pairing to -1 is the distinguished one; the first other
    # negative pairing is the one reported
    first = next((j for j in neg if vals[j] == -1), None)
    bad = [j for j in neg if j != first]
    if bad:
        raise NotARoot(f"ray {rays[bad[0]]} pairs to {vals[bad[0]]}")
    if first is None:
        raise NotARoot("no ray pairs to -1")
    return HomogeneousLND.toric(ToricCarrier(cone), rays[first], ee)


def derive(lnd, element):
    """Apply the derivation once.

    Raises WeightEscape if a surviving term is carried outside the set of
    admissible weights, which is how unsound input data surfaces.
    """
    out = {}
    lnd = as_instance(lnd, HomogeneousLND, "lnd")
    element = as_instance(element, SemigroupElement, "element")
    for key, c in element.terms.items():
        mult = lnd.multiplier(key)
        if not mult:
            continue
        new = lnd.shift(key)
        if not lnd.carrier.admits(new):
            raise WeightEscape(
                f"derivative of weight {key!r} leaves the carrier at {new!r}"
            )
        # the shift is injective, so no two terms meet at one weight
        out[new] = mult * c
    return SemigroupElement._trusted(lnd.carrier, out)


def _orbits(lnd, element):
    """The orbit of every term under the derivation, checked to the end.

    Returns one (coefficient, q, keys) triple per term, where q is the
    multiplier and keys[k] = key + k*e for k = 0..q, each key the one
    before plus e.  A term whose orbit leaves the carrier at step k
    (``first_exit``) escapes there when k <= q or q < 0; the escape with
    the smallest k (the earlier term on a tie) raises WeightEscape, exactly
    where stepping the derivation would have, and only its message needs
    the multiple key + k*e.  Otherwise a term with q < 0 raises
    NotNilpotent: its multiplier never reaches zero.
    """
    add_keys = lnd.carrier.add_keys
    first_exit = lnd.carrier.first_exit
    e = lnd.e
    orbits = []
    escape = None        # (k, weight before, weight after)
    negative = None
    for key, c in element.terms.items():
        q = lnd.multiplier(key)
        k = first_exit(key, e)
        if k is not None and (k <= q or q < 0):
            if escape is None or k < escape[0]:
                escape = (k, add_keys(key, e, k - 1), add_keys(key, e, k))
        elif q < 0:
            if negative is None:
                negative = (key, q)
        else:
            keys = [key]
            for _ in range(q):
                key = add_keys(key, e)
                keys.append(key)
            orbits.append((c, q, keys))
    if escape is not None:
        _, key, new = escape
        raise WeightEscape(
            f"derivative of weight {key!r} leaves the carrier at {new!r}"
        )
    if negative is not None:
        key, q = negative
        raise NotNilpotent(
            f"weight {key!r} has multiplier {q} < 0, which never reaches 0"
        )
    return orbits


class Flow:
    """The flow exp(s D) of one element, read off one walk of its orbits.

    The walk (``_orbits``) raises where stepping the derivation would, so
    each reading carries the checks of every step: the derivative is the
    sum of q c chi^(m+e) over the terms with q >= 1, the nilpotency index
    is max(q + 1), and both flows use the closed form.  The numeric flow
    is computed in integers (``integer_image``); ``at`` reads it back as
    an element, while the CLI writes and checks the integers themselves.
    """

    __slots__ = ("lnd", "element", "orbits")

    def __init__(self, lnd, element):
        self.lnd = as_instance(lnd, HomogeneousLND, "lnd")
        self.element = as_instance(element, SemigroupElement, "element")
        self.orbits = _orbits(lnd, element)

    def derivative(self):
        """D applied once, as ``derive`` gives it when the walk passes."""
        # the shift is injective, so no two terms meet at one weight
        return SemigroupElement._trusted(
            self.lnd.carrier,
            {keys[1]: q * c for c, q, keys in self.orbits if q},
        )

    def nilpotency_index(self):
        """max(q + 1) over the multipliers q of the terms, 0 for zero."""
        return max((q + 1 for _, q, _ in self.orbits), default=0)

    def integer_image(self, s):
        """The image at the rational time ``s`` = a/b, as (d, {key: n}):
        the element sum n/d chi^key, with every n nonzero.

        Each term c chi^m with multiplier q contributes c C(q, k) s^k
        chi^(m + k e) for k = 0..q.  Over the one denominator d = L b^Q,
        with L the lcm of the denominators of the c and Q the largest q,
        that is the integer num(c) (L / den(c)) C(q, k) a^k b^(Q - k).  The
        integers are summed per weight, where orbits may meet.
        """
        if not s:
            return integer_numerators(self.element.terms)
        a, b = s.numerator, s.denominator
        orbits = self.orbits
        top = max((q for _, q, _ in orbits), default=0)
        den = lcm(*(c.denominator for c, _, _ in orbits))
        # scale[k] = a^k b^(top - k), each from the one before
        scale = [b ** top]
        for _ in range(top):
            scale.append(scale[-1] // b * a)
        acc = {}
        get = acc.get
        for c, q, keys in orbits:
            n = c.numerator * (den // c.denominator)
            key = keys[0]
            acc[key] = get(key, 0) + n * scale[0]
            binom = 1
            for k in range(1, q + 1):
                binom = binom * (q - k + 1) // k
                key = keys[k]
                acc[key] = get(key, 0) + n * binom * scale[k]
        return den * scale[0], {k: n for k, n in acc.items() if n}

    def at(self, s):
        """exp(s D) applied to the element at the rational time ``s``:
        its ``integer_image`` (d, {key: n}) read back as an element, each
        n / d one Fraction, in the image's order."""
        d, nums = self.integer_image(s)
        return _computed(self.lnd.carrier, self.element.carrier,
                         {k: Fraction(n, d) for k, n in nums.items()})

    def symbolic(self):
        """The image with s left symbolic: c C(q, k) at s^k chi^(m + k e).

        Two terms never meet at the same weight and power, since the shift
        is injective, so each coefficient is one Fraction of the integer
        num(c) C(q, k) over den(c), and none is zero.
        """
        terms = {}
        for c, q, keys in self.orbits:
            num, den = c.numerator, c.denominator
            binom = 1
            for k, key in enumerate(keys):
                if k:
                    binom = binom * (q - k + 1) // k
                terms.setdefault(key, {})[k] = Fraction(binom * num, den)
        carrier, source = self.lnd.carrier, self.element.carrier
        if source is carrier or source == carrier:  # as in _computed
            return SymbolicElement._trusted(carrier, terms)
        return SymbolicElement(carrier, terms)


def nilpotency_index(lnd, element):
    """Smallest k with the k-th derivative of ``element`` equal to zero.

    This is max(q + 1) over the multipliers q of the terms, and 0 for the
    zero element; there is no bound on q.
    """
    return Flow(lnd, element).nilpotency_index()


def exp_action(lnd, element, s):
    """Image of ``element`` under the flow exp(s * lnd) at time s; the
    checks are those of the derivation's steps, even at s = 0."""
    s = as_fraction(s)
    return Flow(lnd, element).at(s)


class SymbolicElement:
    """A combination of monomials whose coefficients are polynomials in s.

    ``terms`` maps weight keys to {power: coefficient} dictionaries; the
    flow parameter s is kept symbolic.

    The constructor checks every key as ``SemigroupElement`` does, reads
    every power as a nonnegative integer (InvalidInteger otherwise), adds
    up the coefficients of keys and powers that name the same integers and
    drops the zeros; it is the entry point for outside input.  Flow images
    of elements of the derivation's carrier come from ``_trusted``.
    """

    __slots__ = ("carrier", "terms")

    def __init__(self, carrier, terms):
        as_instance(carrier, ToricCarrier, "carrier")
        data = {}
        for key, poly in as_pairs(terms, "terms"):
            key = carrier.freeze(key)
            p = data.setdefault(key, {})
            for deg, c in as_pairs(poly, "powers"):
                deg = as_int(deg)
                if deg < 0:
                    raise InvalidInteger(f"negative power {deg} of s")
                c = as_fraction(c)
                if c and not carrier.admits(key):
                    raise WeightEscape(f"weight {key!r} is not admissible")
                p[deg] = p.get(deg, 0) + c
        self.carrier = carrier
        self.terms = {key: q for key, p in data.items()
                      if (q := {deg: c for deg, c in p.items() if c})}

    @classmethod
    def _trusted(cls, carrier, terms):
        """Wrap ``terms`` as they are: each key maps to a nonempty dict of
        nonnegative int powers with nonzero Fraction coefficients."""
        self = object.__new__(cls)
        self.carrier = carrier
        self.terms = terms
        return self

    def evaluate(self, s):
        s = as_fraction(s)
        data = {}
        for key, poly in self.terms.items():
            data[key] = sum((c * s ** deg for deg, c in poly.items()),
                            Fraction(0))
        return SemigroupElement(self.carrier, data)

    def __eq__(self, other):
        return (isinstance(other, SymbolicElement)
                and self.carrier == other.carrier
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return f"SymbolicElement({dict(sorted(self.terms.items()))!r})"


def exp_symbolic(lnd, element):
    """The flow exp(s * lnd) applied to ``element`` with s left symbolic."""
    return Flow(lnd, element).symbolic()
