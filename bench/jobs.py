"""Benchmark jobs: what to run, on which input file, and how to check it.

A job is either one CLI command run in-process through
``demazure.cli.main(argv)`` with stdout captured, or one library call
(``admits_g_structure``) on the fan read from the job's file.  Its check
compares the exit code and key result fields against an independent
reference and returns ``None`` when they agree, else a short reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path


class Job:
    __slots__ = ("kind", "argv", "path", "check")

    def __init__(self, kind, argv, path, check):
        self.kind = kind        # "<command>:<input family>", for reports
        self.argv = argv        # CLI argv, or None for the library call
        self.path = path
        self.check = check      # check(code, output) -> None | reason


class InputWriter:
    """Names each distinct input file; ``flush`` writes them all."""

    def __init__(self, root):
        self.root = root
        self.paths = {}

    def add(self, obj):
        text = json.dumps(obj)
        if text not in self.paths:
            self.paths[text] = str(self.root / f"in{len(self.paths):05d}.json")
        return self.paths[text]

    def flush(self):
        self.root.mkdir(parents=True)
        for text, path in self.paths.items():
            Path(path).write_text(text)


def vector_arg(flag, vec):
    """``--flag=1,-2``: the '=' form, because argparse rejects '--root -1,2'."""
    return f"{flag}={','.join(str(int(x)) for x in vec)}"


def enc(x):
    f = Fraction(x)
    return [f.numerator, f.denominator]


def dec(pair):
    return Fraction(pair[0], pair[1])


# ---------------------------------------------------------------------------
# checks


def _report(output):
    return json.loads(output)


def expect_result(code, command, fields):
    """Exit ``code``, a ``result`` object, and each dotted field equal."""

    def check(got_code, output):
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        rep = _report(output)
        if rep.get("command") != command or "result" not in rep:
            return "no result report"
        for path, want in fields.items():
            got = rep["result"]
            for part in path.split("."):
                got = got[int(part)] if isinstance(got, list) else got[part]
            if callable(want):
                reason = want(got)
                if reason:
                    return f"{path}: {reason}"
            elif got != want:
                return f"{path} = {got!r}, expected {want!r}"
        return None

    return check


def expect_error(code, command, kind):
    def check(got_code, output):
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        rep = _report(output)
        if rep.get("command") != command or "error" not in rep:
            return "no error report"
        if rep["error"]["kind"] != kind:
            return f"error kind {rep['error']['kind']}, expected {kind}"
        return None

    return check


def expect_library(value):
    def check(got_code, output):
        if got_code != 0 or output is not value:
            return f"returned {output!r}, expected {value!r}"
        return None

    return check


def root_set(expected):
    """Compare the listed roots with a set of (ray index, e) pairs."""
    want = {(i, tuple(e)) for i, e in expected}

    def compare(roots):
        got = {(r["ray_index"], tuple(r["e"])) for r in roots}
        if got != want:
            return (f"{len(got)} roots, {len(got & want)} of the "
                    f"{len(want)} expected")
        return None

    return compare


def class_sizes_sum(total):
    def compare(classes):
        got = sum(c["size"] for c in classes)
        return None if got == total else f"sizes add to {got}, not {total}"

    return compare


def term_key(key):
    """JSON term key -> hashable key: weights, or (weight, power) pairs."""
    if key and isinstance(key[0], list):
        return (tuple(key[0]), key[1])
    return tuple(key)


def terms_equal(expected):
    """Compare element terms with a {key: Fraction} dict."""

    def compare(element):
        got = {term_key(t["key"]): dec(t["coeff"]) for t in element["terms"]}
        return None if got == expected else "terms differ from the reference"

    return compare


def polys_equal(expected):
    """Compare symbolic terms with a {key: {power: Fraction}} dict."""

    def compare(element):
        got = {term_key(t["key"]): {k: dec(c) for k, c in t["polynomial"]}
               for t in element["terms"]}
        return None if got == expected else "flow differs from the reference"

    return compare
