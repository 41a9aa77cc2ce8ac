"""The report writer against ``json.dumps``, byte for byte.

``serialize.render`` must produce exactly
``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``: the reference is
run on seeded nested objects with every kind of leaf, on seeded objects
of the shape the reports have (term lists, symbolic polynomials, records,
subclasses of the container and int types), and on every golden report,
parsed back from its recorded stdout.
"""

from __future__ import annotations

import json
import random
from collections import OrderedDict
from enum import IntEnum
from pathlib import Path

import pytest

from demazure.serialize import render

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_reports.json"

STRINGS = ["", "z0", "key", "é", "naïve ∞", "\U0001d11e", 'say "hi"',
           "back\\slash", "\x00\x1f\n\t\r\x7f", " ", "</script>"]


def reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _leaf(rng):
    return rng.choice([
        lambda: rng.randint(-5, 5),
        lambda: rng.choice([-1, 1]) * rng.randrange(10 ** 99, 10 ** 100),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice(STRINGS),
        lambda: rng.choice([0.5, -0.0, 1e300, 3.25]),
    ])()


def _random_obj(rng, depth):
    if depth == 0:
        return _leaf(rng)
    kind = rng.randrange(6)
    n = rng.randint(0, 4)
    if kind == 0:
        return {rng.choice(STRINGS) + str(rng.randrange(3)):
                _random_obj(rng, depth - 1) for _ in range(n)}
    if kind == 1:
        return [rng.randint(-10 ** 20, 10 ** 20) for _ in range(n)]
    if kind == 2:
        return [_random_obj(rng, depth - 1) for _ in range(n)]
    if kind == 3:
        return tuple(_random_obj(rng, depth - 1) for _ in range(n))
    if kind == 4:
        return rng.choice([{}, [], ()])
    return _leaf(rng)


def test_seeded_objects():
    rng = random.Random(20261018)
    for _ in range(400):
        obj = _random_obj(rng, rng.randint(0, 5))
        assert render(obj) == reference(obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), [[]], {"a": {}}, [1, True, 2], [1, None], [-0, 10 ** 100],
    {"b": 1, "a": [1, 2], "A": "é\"\\"}, ("x", (1, 2), [3]), 0.1, -7,
    {1: "int key", 10: "sorted as ints", 2: None},
    {True: 1, False: 0}, {None: [1.5]}, {2.5: "float key"},
], ids=repr)
def test_edge_cases(obj):
    assert render(obj) == reference(obj)


@pytest.mark.parametrize("obj", [{"a": object()}, [{(1, 2): 0}],
                                 {"a": 1, 2: 3}])
def test_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        render(obj)


def test_every_golden_report():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) >= 127
    for case, rec in golden.items():
        obj = json.loads(rec["stdout"])
        assert render(obj) == reference(obj) == rec["stdout"], case


# -- objects of the shape the reports have -----------------------------------


class Sign(IntEnum):
    MINUS = -1
    PLUS = 1


class IntList(list):
    pass


class Count(int):
    pass


def _big(rng):
    return rng.choice([-1, 1]) * rng.randrange(10 ** 20, 10 ** 120)


def _weight(rng, rank):
    return [rng.choice([rng.randint(-60, 60), _big(rng)]) for _ in range(rank)]


def _term(rng, rank, curve, symbolic):
    """One term as element_to_json or symbolic_to_json writes it: a toric
    key [m...] or a curve key [[m...], r], and a coefficient [n, d] or a
    polynomial [[k, [n, d]], ...]."""
    m = _weight(rng, rank)
    key = [m, rng.randint(-9, 9)] if curve else m
    if symbolic:
        poly = [[k, [rng.choice([rng.randint(-9, 9), _big(rng)]),
                     rng.randint(1, 10 ** 12)]]
                for k in range(rng.randint(0, 4))]
        return {"key": key, "polynomial": poly}
    return {"coeff": [rng.randint(-50, 50), rng.randint(1, 12)], "key": key}


def _record(rng):
    """A report record: nested results with every kind of leaf."""
    rank = rng.randint(1, 4)
    curve, symbolic = rng.random() < 0.4, rng.random() < 0.4
    terms = [_term(rng, rank, curve, symbolic)
             for _ in range(rng.randint(0, 6))]
    result = {
        "element": {"terms": terms},
        "exp": {"terms": terms[::-1]},
        "nilpotency_index": rng.randint(0, 61),
        "homomorphism": rng.choice([None, {"equal": rng.random() < 0.5}]),
        "time": rng.choice([None, [rng.randint(-7, 7), rng.randint(1, 5)]]),
        "mode": rng.choice(STRINGS),
        "ratio": rng.choice([0.5, -0.0, 1e300, 3.25]),
        "big": _big(rng),
        "flags": [rng.choice([True, False, None]) for _ in range(3)],
        "empty": rng.choice([[], {}, (), [[]], [{}]]),
    }
    return {"schema_version": 1, "command": rng.choice(STRINGS),
            "result": result}


def _subclassed(obj, rng):
    """obj with some containers and ints swapped for subclasses json treats
    like them: OrderedDict in reversed order, list subclasses and tuples,
    int subclasses and IntEnum members."""
    if type(obj) is dict:
        items = [(k, _subclassed(v, rng)) for k, v in obj.items()]
        if rng.random() < 0.3:
            return OrderedDict(reversed(items))
        return dict(items)
    if type(obj) is list:
        items = [_subclassed(x, rng) for x in obj]
        return rng.choice([list, list, IntList, tuple])(items)
    if type(obj) is int and rng.random() < 0.2:
        return Sign(1 if obj > 0 else -1) if rng.random() < 0.5 \
            else Count(obj)
    return obj


def test_seeded_report_shapes():
    rng = random.Random(20261019)
    for _ in range(300):
        obj = _record(rng)
        assert render(obj) == reference(obj)
        twisted = _subclassed(obj, rng)
        assert render(twisted) == reference(twisted)


@pytest.mark.parametrize("obj", [
    OrderedDict([("b", 1), ("a", [1, 2])]), IntList([1, IntList([2])]),
    [Sign.MINUS, Count(7), True], {"k": Sign.PLUS}, [[Count(3), 4]],
    {"terms": [{"key": [[1, 2], 3], "coeff": [1, 2]}]},
    {"terms": [{"key": [1, 2], "polynomial": [[0, [1, 1]], [1, [-3, 7]]]}]},
    [{3: [1, 2], 1: None}, {2.5: [], True: {}}],
], ids=repr)
def test_report_shaped_edge_cases(obj):
    assert render(obj) == reference(obj)


def test_rejects_a_bad_key_inside_a_term_list():
    rng = random.Random(7)
    for _ in range(20):
        obj = _record(rng)
        terms = obj["result"]["exp"]["terms"]
        terms.insert(rng.randint(0, len(terms)), {(1, 2): [0, 1]})
        with pytest.raises(TypeError):
            reference(obj)
        with pytest.raises(TypeError):
            render(obj)
