"""The closed-form flow against the former step loops and Fraction flow.

``derive``, ``nilpotency_index``, ``exp_action`` and ``exp_symbolic`` used
to iterate the derivation one step at a time, with an iteration ceiling of
10^4 steps.  Those loops are kept below as test oracles.  The closed form
must agree with them everywhere except in two documented places:

* a term with a negative multiplier whose orbit never leaves the carrier
  raises ``NotNilpotent`` at once, with its own message (the oracle
  raises it after the ceiling, naming the step count);
* an orbit that leaves the carrier after more than the ceiling's number
  of steps raises ``WeightEscape`` (the oracle gives up first with
  ``NotNilpotent``), and a multiplier of 10^4 or more no longer fails.

``Flow.at`` used to multiply Fractions for every orbit term; that closed
form is kept below as the oracle of the integer one, which must give the
same terms in the same order.

The ``lnd`` product check used to build exp(sD)f_1 ... exp(sD)f_k as an
element, by Fraction products, and compare it with ``==``; that check is
kept below as the oracle of ``is_product``, which must give the same
verdict on the true image and on images changed by one term.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb, lcm

import pytest

from demazure.algebra import (
    CurveCarrier,
    Flow,
    HomogeneousLND,
    SemigroupElement,
    SymbolicElement,
    ToricCarrier,
    derive,
    exp_action,
    exp_symbolic,
    is_product,
    monomial,
    nilpotency_index,
    toric_lnd,
)
from demazure.errors import NotARoot, NotNilpotent, WeightEscape
from demazure.lattice import Cone, dot

from test_algebra import fraction_product, is_zero

# -- the former step loops (oracles only) ------------------------------------

CEILING = 10 ** 4


def old_derive(lnd, element):
    out = {}
    for key, c in element.terms.items():
        mult = lnd.multiplier(key)
        if not mult:
            continue
        new = lnd.shift(key)
        if not lnd.carrier.admits(new):
            raise WeightEscape(
                f"derivative of weight {key!r} leaves the carrier at {new!r}"
            )
        out[new] = out.get(new, Fraction(0)) + mult * c
    return SemigroupElement(lnd.carrier, out)


def _old_cap(lnd, element, ceiling):
    cap = 0
    for key in element.terms:
        q = lnd.multiplier(key)
        if q < 0:
            return ceiling
        cap = max(cap, int(q))
    return min(cap + 3, ceiling)


def old_nilpotency_index(lnd, element, ceiling=CEILING):
    cap = _old_cap(lnd, element, ceiling)
    cur = element
    k = 0
    while not is_zero(cur):
        if k >= cap:
            raise NotNilpotent(f"derivation still alive after {k} steps")
        cur = old_derive(lnd, cur)
        k += 1
    return k


def old_exp_action(lnd, element, s, ceiling=CEILING):
    s = Fraction(s)
    acc = dict(element.terms)
    term = element
    cap = _old_cap(lnd, element, ceiling)
    factor = Fraction(1)
    k = 0
    while not is_zero(term):
        k += 1
        if k > cap:
            raise NotNilpotent(f"flow did not terminate after {k - 1} steps")
        term = old_derive(lnd, term)
        factor = factor * s / k
        for key, c in term.terms.items():
            acc[key] = acc.get(key, Fraction(0)) + factor * c
    return SemigroupElement(lnd.carrier, acc)


def old_exp_symbolic(lnd, element, ceiling=CEILING):
    terms = {k: {0: c} for k, c in element.terms.items()}
    term = element
    cap = _old_cap(lnd, element, ceiling)
    fact = 1
    k = 0
    while not is_zero(term):
        k += 1
        if k > cap:
            raise NotNilpotent(f"flow did not terminate after {k - 1} steps")
        term = old_derive(lnd, term)
        fact *= k
        for key, c in term.terms.items():
            poly = terms.setdefault(key, {})
            poly[k] = poly.get(k, Fraction(0)) + c / fact
    return terms


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (WeightEscape, NotNilpotent) as exc:
        return (type(exc).__name__, str(exc))


def _escape(fn, *args):
    with pytest.raises(WeightEscape) as info:
        fn(*args)
    return str(info.value)


# -- pinned error precedence for non-roots -----------------------------------
#
# On the quadrant, n = (2, -1) and e = (-1, -1) pair to -1 but n is no ray
# normal.  The multiplier of m is q = 2 m1 - m2, and m + k e leaves the
# quadrant at step k = min(m1, m2) + 1.  Steps 1..q of a term with q >= 0
# are checked, every step of a term with q < 0 is; the first failing step
# wins, and on a tie the earlier term does.


def quadrant():
    return ToricCarrier(Cone(2, [(1, 0), (0, 1)]))


def skew():
    c = quadrant()
    return c, HomogeneousLND.toric(c, (2, -1), (-1, -1))


FLOWS = [
    nilpotency_index,
    lambda lnd, x: exp_action(lnd, x, Fraction(3, 2)),
    lambda lnd, x: exp_action(lnd, x, 0),
    exp_symbolic,
]


def _leaves(key, new):
    return f"derivative of weight {key!r} leaves the carrier at {new!r}"


def _sum(carrier, *keys):
    return SemigroupElement(carrier, [(k, 1) for k in keys])


@pytest.mark.parametrize("flow", FLOWS)
def test_precedence_smallest_step_first(flow):
    c, lnd = skew()
    # (1, 5): q = -3, leaves at step 2; (3, 1): q = 5, leaves at step 2
    assert _escape(flow, lnd, _sum(c, (1, 5), (3, 1))) \
        == _leaves((0, 4), (-1, 3))
    assert _escape(flow, lnd, _sum(c, (3, 1), (1, 5))) \
        == _leaves((2, 0), (1, -1))
    # (6, 20): q = -8, leaves at step 7, after (3, 1) at step 2
    assert _escape(flow, lnd, _sum(c, (6, 20), (3, 1))) \
        == _leaves((2, 0), (1, -1))
    # (4, 4): q = 4 dies before it could leave at step 5; (0, 3) leaves at 1
    assert _escape(flow, lnd, _sum(c, (4, 4), (0, 3))) \
        == _leaves((0, 3), (-1, 2))
    # a negative multiplier far from the boundary: (40, 90), q = -10
    assert _escape(flow, lnd, _sum(c, (40, 90))) \
        == _leaves((0, 50), (-1, 49))


def test_precedence_terms_that_die_in_time():
    c, lnd = skew()
    x = SemigroupElement(c, [((4, 4), 1), ((2, 4), 3), ((5, 9), -1)])
    # q = 4, 0, 1: each is killed before its orbit leaves the quadrant
    assert nilpotency_index(lnd, x) == 5
    assert exp_action(lnd, x, 1) == old_exp_action(lnd, x, 1)
    assert exp_symbolic(lnd, x).terms == old_exp_symbolic(lnd, x)


def test_precedence_derive_checks_one_step():
    c, lnd = skew()
    # derive only looks one step ahead: (1, 5) leaves at step 2
    assert derive(lnd, monomial(c, (1, 5))) == monomial(c, (0, 4), -3)
    assert _escape(derive, lnd, _sum(c, (4, 4), (0, 3), (3, 0))) \
        == _leaves((0, 3), (-1, 2))


@pytest.mark.parametrize("flow", FLOWS)
def test_precedence_negative_multiplier_inside_the_carrier(flow):
    # n = (-1, 0), e = (1, 0): q = -m1, and the orbit never leaves
    c = quadrant()
    lnd = HomogeneousLND.toric(c, (-1, 0), (1, 0))
    with pytest.raises(NotNilpotent):
        flow(lnd, SemigroupElement(c, [((0, 2), 1), ((3, 1), 1)]))
    # q = 0 alone is killed at once
    assert nilpotency_index(lnd, monomial(c, (0, 2))) == 1


@pytest.mark.parametrize("flow", FLOWS)
def test_precedence_horizontal(flow):
    # over A^1 with coefficient conv(0, 1) at t = 0 and a line as tail:
    # (m, r) is admissible when r >= -min(0, m); the multiplier is r
    carrier = CurveCarrier("A1", Cone(1, []), [(0,), (1,)])
    lnd = HomogeneousLND.horizontal(carrier, (0,), 1, (0,), -1)
    assert _escape(flow, lnd, monomial(carrier, ((-1,), 1))) \
        == _leaves(((-1,), 1), ((-1,), 0))
    assert _escape(flow, lnd, SemigroupElement(
        carrier, [(((2,), 3), 1), (((-2,), 4), 1)])) \
        == _leaves(((-2,), 2), ((-2,), 1))
    # over A^1 with the trivial coefficient, (m, r) is admissible when
    # r >= 0; with v0 = 1, d = 1, e = -1, s = 0 the multiplier is m + r
    # and the orbit of ((-5,), 1), q = -4, stays in the carrier forever
    carrier, lnd = line_over_a1()
    with pytest.raises(NotNilpotent):
        flow(lnd, monomial(carrier, ((-5,), 1)))


def line_over_a1():
    carrier = CurveCarrier("A1", Cone(1, []), [(0,)])
    return carrier, HomogeneousLND.horizontal(carrier, (1,), 1, (-1,), 0)


def test_elements_of_another_carrier_are_checked_as_before():
    quad = quadrant()
    sing = ToricCarrier(Cone(2, [(1, 0), (1, 2)]))
    # (2, -1) is admissible on the singular cone, not on the quadrant
    x = SemigroupElement(sing, [((2, -1), 1), ((0, 0), 2)])
    seen = {"ok": 0, "WeightEscape": 0, "NotNilpotent": 0}
    for lnd in [HomogeneousLND.toric(quad, (1, 0), (-1, 1)),
                HomogeneousLND.toric(quad, (-1, 0), (1, 0))]:
        # the symbolic step loop trusts the image; the constructor does not
        assert _compare(lnd, x, (Fraction(1, 2), 0), CEILING, seen,
                        symbolic=False)
        with pytest.raises(WeightEscape):
            exp_symbolic(lnd, x)
    assert seen == {"ok": 2, "WeightEscape": 6, "NotNilpotent": 0}
    y = monomial(quad, (1, 0))
    assert _escape(lambda: y * x) == "weight (3, -1) is not admissible"
    assert _escape(lambda: y + x) == "weight (2, -1) is not admissible"
    assert x * y == SemigroupElement(sing, [((3, -1), 1), ((1, 0), 2)])


def test_every_constructor_checks_the_drop_by_one():
    # the closed form needs q(m + e) = q(m) - 1, so the plain constructor
    # refuses a degree that breaks it, like ``toric`` and ``horizontal``
    with pytest.raises(NotARoot):
        HomogeneousLND(quadrant(), (1, 0), (-2, 0))
    carrier, _ = line_over_a1()
    with pytest.raises(NotARoot):
        HomogeneousLND(carrier, (0, 1), ((0,), 0))


# -- a multiplier beyond the former ceiling ----------------------------------


def test_index_beyond_former_ceiling():
    c = quadrant()
    lnd = toric_lnd(c.cone, (-1, 0))
    assert nilpotency_index(lnd, monomial(c, (20000, 0))) == 20001
    assert nilpotency_index(lnd, monomial(c, (20000, 7), 5)) == 20001


def test_symbolic_flow_beyond_former_ceiling():
    c = quadrant()
    lnd = toric_lnd(c.cone, (-1, 0))
    q = 10000
    sym = exp_symbolic(lnd, monomial(c, (q, 0)))
    assert len(sym.terms) == q + 1
    assert sym.terms[(q, 0)] == {0: 1}
    assert sym.terms[(q - 1, 0)] == {1: q}
    assert sym.terms[(q - 2, 0)] == {2: comb(q, 2)}
    assert sym.terms[(0, 0)] == {q: 1}


# -- differential test against the step loops --------------------------------


def _random_cone(rng, rank):
    while True:
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(rank, rank + 2))]
        cone = Cone(rank, gens)
        if cone.is_strongly_convex() and cone.dim() == rank:
            return cone


def _admissible(carrier, keys):
    return [k for k in keys if carrier.admits(k)]


def _toric_case(rng):
    rank = rng.choice([2, 2, 3])
    cone = _random_cone(rng, rank)
    carrier = ToricCarrier(cone)
    keys = _admissible(carrier, product(range(-4, 5), repeat=rank))
    if rng.random() < 0.5:
        roots = []
        for e in product(range(-3, 4), repeat=rank):
            pairings = [dot(r, e) for r in cone.rays()]
            if min(pairings) == -1 and pairings.count(-1) == 1:
                roots.append(e)
        if roots:
            return carrier, toric_lnd(cone, rng.choice(roots)), keys
    while True:
        # any normal pairing to -1 with the degree: mostly no root
        n = tuple(rng.randint(-3, 3) for _ in range(rank))
        e = tuple(rng.randint(-2, 2) for _ in range(rank))
        if dot(n, e) == -1:
            return carrier, HomogeneousLND.toric(carrier, n, e), keys


def _rational(rng):
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))


def _horizontal_data(rng):
    """A random carrier over A^1 or P^1 and a derivation datum
    (v0, d, e, s) with d (<v0, e> + s) = -1, or None if none was found."""
    rank = rng.choice([1, 1, 2])
    tail = _random_cone(rng, rank) if rng.random() < 0.6 else Cone(rank, [])
    curve = rng.choice(["A1", "P1"])
    # extra vertices at 0 next to the distinguished one
    v0s = [tuple(_rational(rng) for _ in range(rank))
           for _ in range(rng.randint(1, 3))]
    vinf = None
    if curve == "P1":
        vinf = [tuple(_rational(rng) for _ in range(rank))
                for _ in range(rng.randint(1, 2))]
    carrier = CurveCarrier(curve, tail, v0s, vinf)
    for _ in range(50):
        if rng.random() < 0.5:
            v0 = rng.choice(v0s)
        else:
            v0 = tuple(_rational(rng) for _ in range(rank))
        d = lcm(*(x.denominator for x in v0)) * rng.choice([1, 1, 2])
        e = tuple(rng.randint(-2, 2) for _ in range(rank))
        num = Fraction(-1, d) - dot(v0, e)
        if num.denominator == 1:
            return carrier, (v0, d, e, int(num))
    return carrier, None


def _horizontal_case(rng):
    carrier, datum = _horizontal_data(rng)
    if datum is None:
        return None
    box = [(m, r) for m in product(range(-3, 4), repeat=carrier.rank)
           for r in range(-4, 5)]
    return (carrier, HomogeneousLND.horizontal(carrier, *datum),
            _admissible(carrier, box))


def _element(carrier, keys, rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = rng.choice(keys)
        terms[key] = terms.get(key, 0) + Fraction(
            rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return SemigroupElement(carrier, terms)


def _compare(lnd, x, times, ceiling, seen, symbolic=True):
    """Compare every flow function with its step loop on one element."""
    pairs = [
        (_outcome(derive, lnd, x), _outcome(old_derive, lnd, x)),
        (_outcome(nilpotency_index, lnd, x),
         _outcome(old_nilpotency_index, lnd, x, ceiling)),
    ]
    for s in times:
        pairs.append((_outcome(exp_action, lnd, x, s),
                       _outcome(old_exp_action, lnd, x, s, ceiling)))
    if symbolic:
        pairs.append((_outcome(lambda *a: exp_symbolic(*a).terms, lnd, x),
                      _outcome(old_exp_symbolic, lnd, x, ceiling)))
    for new, old in pairs:
        seen[new[0]] += 1
        if new[0] == "NotNilpotent":
            # the documented difference: no step count in the message
            assert old[0] == "NotNilpotent", (lnd, x, new, old)
            assert any(lnd.multiplier(k) < 0 for k in x.terms)
        elif new[0] == "WeightEscape" and old[0] == "NotNilpotent":
            # the exit lies beyond this oracle's ceiling: retry at 10^4
            return False
        else:
            assert new == old, (lnd, x, new, old)
    return True


def test_closed_form_matches_step_loops():
    rng = random.Random(20261018)
    seen = {"ok": 0, "WeightEscape": 0, "NotNilpotent": 0}
    retried = 0
    for i in range(200):
        case = _toric_case(rng) if i % 2 else _horizontal_case(rng)
        if case is None or not case[2]:
            continue
        carrier, lnd, keys = case
        for _ in range(4):
            x = _element(carrier, keys, rng)
            s = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            # a low ceiling keeps the non-nilpotent cases cheap
            if not _compare(lnd, x, (s, 0), 64, seen):
                retried += 1
                assert _compare(lnd, x, (s, 0), CEILING, seen)
    assert seen["ok"] > 1000
    assert seen["WeightEscape"] > 200
    assert seen["NotNilpotent"] > 50
    assert retried < 5


def test_closed_form_matches_step_loops_at_the_full_ceiling():
    # one non-nilpotent element of each carrier kind against the real
    # 10^4-step ceiling (at time 0 only: the oracle's coefficients
    # grow factorially, and at s != 0 it needs half a minute)
    c = quadrant()
    lnd = HomogeneousLND.toric(c, (-1, 0), (1, 0))
    x = SemigroupElement(c, [((0, 2), 1), ((3, 1), 1)])
    seen = {"ok": 0, "WeightEscape": 0, "NotNilpotent": 0}
    assert _compare(lnd, x, (0,), CEILING, seen, symbolic=False)
    carrier, lnd = line_over_a1()
    x = SemigroupElement(carrier, [(((2,), 0), 1), (((-5,), 1), 2)])
    assert _compare(lnd, x, (0,), CEILING, seen, symbolic=False)
    # derive takes one step and succeeds; the index and the flow refuse
    assert seen == {"ok": 2, "WeightEscape": 0, "NotNilpotent": 4}


# -- the integer flow against the former Fraction closed form ----------------


def fraction_flow_at(flow, s):
    """The former ``Flow.at``: two Fraction products per orbit term, and
    the result checked by the constructor when the element comes from
    another carrier."""
    carrier, source = flow.lnd.carrier, flow.element.carrier
    if not s:
        data = flow.element.terms
    else:
        data = {}
        for c, q, keys in flow.orbits:
            binom = 1
            coeff = c
            for k, key in enumerate(keys):
                if k:
                    binom = binom * (q - k + 1) // k
                    coeff *= s
                term = binom * coeff
                data[key] = data[key] + term if key in data else term
    if source is carrier or source == carrier:
        return SemigroupElement._trusted(
            carrier, {k: c for k, c in data.items() if c})
    return SemigroupElement(carrier, data)


TIMES = [Fraction(t) for t in
         (0, 1, -1, 4, -3, "1/2", "-1/2", "7/3", "-7/3", "-5/12")]


def _assert_flow(flow, s):
    """Flow.at against the oracle at time s: the same outcome and, on
    success, the same terms in the same order, every coefficient a
    Fraction.  Returns the outcome's name."""
    new = _outcome(flow.at, s)
    old = _outcome(fraction_flow_at, flow, s)
    if new[0] != "ok":
        assert new == old, (flow.lnd, flow.element, s)
        return new[0]
    assert old[0] == "ok", (flow.lnd, flow.element, s, old)
    got = list(new[1].terms.items())
    assert got == list(old[1].terms.items()), (flow.lnd, flow.element, s)
    assert new[1].carrier is flow.lnd.carrier
    assert all(type(c) is Fraction for _, c in got)
    return "ok"


def _with_overlap(lnd, x, s, rng):
    """x plus a term at m + e for a term chi^m of x, so that two orbits
    meet.  With probability 1/2 the new coefficient cancels the flow of x
    at m + e at time s (as the oracle gives it), and m + e is returned."""
    if is_zero(x):
        return x, None
    new = lnd.shift(rng.choice(list(x.terms)))
    if new in x.terms or not lnd.carrier.admits(new):
        return x, None
    if rng.random() < 0.5:
        try:
            coeff = -fraction_flow_at(Flow(lnd, x), s).terms.get(new, 0)
        except (WeightEscape, NotNilpotent):
            coeff = 0
        if coeff:
            return x + monomial(x.carrier, new, coeff), new
    return x + monomial(x.carrier, new, _rational(rng) or 1), None


def test_integer_flow_matches_the_fraction_flow():
    rng = random.Random(20261019)
    seen = {"ok": 0, "WeightEscape": 0, "NotNilpotent": 0}
    kinds = {"toric": 0, "curve": 0}
    met = cancelled = 0
    for i in range(300):
        case = _toric_case(rng) if i % 2 else _horizontal_case(rng)
        if case is None or not case[2]:
            continue
        carrier, lnd, keys = case
        for _ in range(3):
            x = _element(carrier, keys, rng)
            s = rng.choice(TIMES[1:])
            x, dropped = _with_overlap(lnd, x, s, rng)
            try:
                flow = Flow(lnd, x)
            except (WeightEscape, NotNilpotent) as exc:
                seen[type(exc).__name__] += 1
                continue
            for t in TIMES + [s]:
                seen[_assert_flow(flow, t)] += 1
            kinds[type(carrier).__name__[:5].lower()] += 1
            met += any(q and keys[1] in x.terms for _, q, keys in flow.orbits)
            if dropped is not None:
                assert dropped not in flow.at(s).terms
                cancelled += 1
            # the symbolic image equals the one the validating
            # constructor builds from the former step loop
            assert flow.symbolic() == SymbolicElement(
                carrier, old_exp_symbolic(lnd, x))
    assert seen["ok"] > 4000
    assert seen["WeightEscape"] > 200 and seen["NotNilpotent"] > 20
    assert kinds["toric"] > 200 and kinds["curve"] > 150
    assert met > 150 and cancelled > 80


def test_integer_flow_on_long_orbits():
    rng = random.Random(61)
    quad = quadrant()
    lnd = HomogeneousLND.toric(quad, (1, 0), (-1, 2))
    carrier, hor = line_over_a1()
    for d, keys in [(lnd, [(60, 0), (59, 2), (45, 3), (1, 7)]),
                    (hor, [((40,), 10), ((39,), 10), ((2,), 3)])]:
        for s in TIMES + [Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                          for _ in range(4)]:
            x = SemigroupElement(d.carrier, [
                (k, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 10 ** 6)))
                for k in keys])
            assert _assert_flow(Flow(d, x), s) == "ok"
    # (60, 0) and (59, 2) = (60, 0) + e cancel at (59, 2) at time 1/60
    x = SemigroupElement(quad, [((60, 0), 1), ((59, 2), -1)])
    assert _assert_flow(Flow(lnd, x), Fraction(1, 60)) == "ok"
    assert (59, 2) not in exp_action(lnd, x, Fraction(1, 60)).terms
    assert exp_action(lnd, SemigroupElement(quad, {}), 3).terms == {}


def test_integer_flow_of_an_element_of_another_carrier():
    quad = quadrant()
    sing = ToricCarrier(Cone(2, [(1, 0), (1, 2)]))
    lnd = HomogeneousLND.toric(quad, (1, 0), (-1, 1))
    # every weight of the image lies in the quadrant: the constructor
    # accepts it
    x = SemigroupElement(sing, [((2, 1), Fraction(1, 3)), ((1, 2), -2)])
    # the walk checks the steps (1, 0) and (0, 1) of (2, -1), but the
    # weight itself lies outside the quadrant: the constructor refuses it
    y = SemigroupElement(sing, [((2, -1), 1), ((0, 0), 2)])
    for s in TIMES:
        assert _assert_flow(Flow(lnd, x), s) == "ok"
        assert _assert_flow(Flow(lnd, y), s) == "WeightEscape"
    assert _escape(Flow(lnd, y).at, Fraction(1, 2)) \
        == "weight (2, -1) is not admissible"


# -- the product check in integers against the former Fraction check --------


def fraction_rhs(lnd, factors, s):
    """The former right-hand side: each factor's flow at s as an element,
    multiplied by the former Fraction double loop."""
    rhs = exp_action(lnd, factors[0], s)
    for f in factors[1:]:
        rhs = SemigroupElement._trusted(
            lnd.carrier, dict(fraction_product(rhs, exp_action(lnd, f, s))))
    return rhs


def _image(x):
    """An element as integer numerators over the lcm of its denominators."""
    d = lcm(*(c.denominator for c in x.terms.values()))
    return d, {k: int(c * d) for k, c in x.terms.items()}


def _radix(carrier, images):
    """W = 2B + 1, B the sum of the images' largest |flat coordinate|."""
    return 1 + 2 * sum(
        max((abs(x) for k in nums for x in carrier.flat(k)), default=0)
        for _, nums in images)


def _moved(carrier, key, by):
    """The key whose flat weight is flat(key) + by."""
    return carrier.unflat(tuple(
        x + y for x, y in zip(carrier.flat(key), by)))


def _variants(carrier, lhs, radix, rng):
    """(name, terms) for images that differ from ``lhs`` in one term: a
    coefficient changed, a key dropped or added, and a key moved by W e_0
    - e_1 (its packing aliases the key's own) or by (W - 2) e_0 - e_1 (an
    alias of the key under the radix W - 2)."""
    terms = dict(lhs.terms)
    if not terms:
        yield "added", {carrier.unflat((0,) * carrier.cone.rank): 1}
        return
    key = rng.choice(list(terms))
    n = len(carrier.flat(key))
    changed = dict(terms)
    changed[key] += Fraction(1, 7)
    yield "coefficient", {k: c for k, c in changed.items() if c}
    yield "dropped", {k: c for k, c in terms.items() if k != key}
    new = next(k for k in (_moved(carrier, key, (j,) + (0,) * (n - 1))
                           for j in range(1, len(terms) + 2))
               if k not in terms)
    yield "added", {**terms, new: Fraction(rng.randint(1, 9), 3)}
    for name, w in (("alias", radix), ("alias W - 2", radix - 2)):
        moved = _moved(carrier, key, (w, -1) + (0,) * (n - 2))
        if moved not in terms:
            yield name, {moved if k == key else k: c
                         for k, c in terms.items()}


def _check_product(lnd, factors, s, rng, verdicts):
    """The integer check against the former Fraction check: the same
    outcome on the true image, then the same False on each variant."""
    element = factors[0]
    for f in factors[1:]:
        element = element * f
    try:
        flow = Flow(lnd, element)
        image = flow.integer_image(s)
        images = [Flow(lnd, f).integer_image(s) for f in factors]
    except (WeightEscape, NotNilpotent) as exc:
        old = _outcome(lambda: (exp_action(lnd, element, s),
                                fraction_rhs(lnd, factors, s)))
        assert old == (type(exc).__name__, str(exc))
        verdicts[old[0]] += 1
        return
    lhs = flow.at(s)
    rhs = fraction_rhs(lnd, factors, s)
    assert lhs == exp_action(lnd, element, s)
    assert is_product(lnd.carrier, image, images) is (lhs == rhs) is True
    assert is_product(lnd.carrier, _image(lhs), images)
    radix = _radix(lnd.carrier, images)
    for name, terms in _variants(lnd.carrier, lhs, radix, rng):
        other = SemigroupElement._trusted(lnd.carrier, terms)
        assert (other == rhs) is False, name
        assert is_product(lnd.carrier, _image(other), images) is False, \
            (name, lnd, factors, s)
        verdicts[name] += 1


def test_integer_product_check_matches_the_fraction_check():
    rng = random.Random(20261020)
    verdicts = {k: 0 for k in ("coefficient", "dropped", "added", "alias",
                               "alias W - 2", "WeightEscape",
                               "NotNilpotent")}
    kinds = {"toric": 0, "curve": 0}
    for i in range(160):
        case = _toric_case(rng) if i % 2 else _horizontal_case(rng)
        if case is None or not case[2]:
            continue
        carrier, lnd, keys = case
        for _ in range(2):
            factors = [_element(carrier, keys, rng)
                       for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.1:
                factors[rng.randrange(len(factors))] = \
                    SemigroupElement(carrier, {})
            for s in (Fraction(0), rng.choice(TIMES[1:])):
                _check_product(lnd, factors, s, rng, verdicts)
            kinds[type(carrier).__name__[:5].lower()] += 1
    assert kinds["toric"] > 100 and kinds["curve"] > 60
    assert min(verdicts.values()) >= 20, verdicts


def test_integer_product_check_at_the_packing_bound():
    # exp(sD) (a, b) has the keys (a - k, b + k), so the product of two
    # such images reaches the bound B = B_1 + B_2 in its second coordinate
    quad = quadrant()
    lnd = HomogeneousLND.toric(quad, (1, 0), (-1, 1))
    rng = random.Random(3)
    for a, b in [((3, 0), (2, 1)), ((1, 5), (0, 4)), ((7, 2), (1, 1))]:
        factors = [monomial(quad, a, Fraction(2, 3)),
                   monomial(quad, b, -5) + monomial(quad, (0, 0), 1)]
        for s in (Fraction(0), Fraction(1), Fraction(-5, 4)):
            images = [Flow(lnd, f).integer_image(s) for f in factors]
            lhs = exp_action(lnd, factors[0] * factors[1], s)
            bound = _radix(quad, images) // 2
            assert max(abs(x) for k in lhs.terms for x in k) == bound
            assert is_product(quad, _image(lhs), images)
            verdicts = dict.fromkeys(("coefficient", "dropped", "added",
                                      "alias", "alias W - 2"), 0)
            _check_product(lnd, factors, s, rng, verdicts)
            assert all(verdicts.values()), verdicts
    # negative coordinates over a curve
    carrier, hor = line_over_a1()
    x = SemigroupElement(carrier, [(((-3,), 5), Fraction(1, 2))])
    y = SemigroupElement(carrier, [(((2,), 1), 3), (((-4,), 6), 1)])
    for s in (Fraction(0), Fraction(2, 3)):
        verdicts = dict.fromkeys(("coefficient", "dropped", "added",
                                  "alias", "alias W - 2"), 0)
        _check_product(hor, [x, y, x], s, rng, verdicts)
        assert all(verdicts.values()), verdicts


def test_integer_product_check_of_zero():
    quad = quadrant()
    lnd = HomogeneousLND.toric(quad, (1, 0), (-1, 1))
    zero = SemigroupElement(quad, {})
    x = monomial(quad, (2, 1), 3)
    for s in (Fraction(0), Fraction(1, 2)):
        images = [Flow(lnd, f).integer_image(s) for f in (x, zero)]
        assert is_product(quad, (1, {}), images)
        assert not is_product(quad, (1, {(0, 0): 1}), images)
        assert is_product(quad, Flow(lnd, x).integer_image(s), images[:1])
