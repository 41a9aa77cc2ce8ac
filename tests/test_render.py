"""The report writer against ``json.dumps``, byte for byte.

``serialize.render`` must produce exactly
``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``: the reference is
run on seeded nested objects with every kind of leaf and on every golden
report, parsed back from its recorded stdout.
"""

from __future__ import annotations

import json
import random
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
