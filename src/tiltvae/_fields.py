"""Typed `key = value` settings: one parser for command-line options,
replayed manifests, training configs and data specs."""

import math
from collections import namedtuple

from .errors import DomainError

REQUIRED = object()  # the default of a field that must be given
# Field kinds: a plain value, an input path (kept on replay) and an output
# path (redirected into the replay out-dir).
VAL, IN_PATH, OUT_PATH = "val", "in", "out"

# One setting: its key, the parser from its text, its default, the formatter
# back to text, its kind and its help line.
Field = namedtuple("Field", "key parse default fmt kind help",
                   defaults=(str, REQUIRED, str, VAL, ""))


def parse_fields(fields, strings, where):
    """{key: value} for every field from {key: raw text}; an absent key takes
    its default. A missing required key, a key no field names, or a parser's
    ValueError is a DomainError that opens with where(key), the text's
    source, as in "SOURCE: key = 'raw': reason"."""
    extra = sorted(set(strings) - {f.key for f in fields})
    if extra:
        raise DomainError(f"{where(extra[0])}: unrecognized keys {extra}")
    config = {}
    for f in fields:
        if f.key not in strings:
            if f.default is REQUIRED:
                raise DomainError(f"{where(f.key)}: missing key {f.key!r}")
            config[f.key] = f.default
            continue
        try:
            config[f.key] = f.parse(strings[f.key])
        except ValueError as exc:
            raise DomainError(f"{where(f.key)}: {f.key} = {strings[f.key]!r}: {exc}") from None
    return config


def checked(parse, ok, reason):
    """parse, with ValueError(reason) for a value that ok refuses."""
    def parse_checked(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(reason)
        return value
    return parse_checked


def choice(*options):
    return checked(str, lambda v: v in options, f"must be one of {', '.join(options)}")


count = checked(int, lambda v: v >= 1, "must be >= 1")
non_negative_int = checked(int, lambda v: v >= 0, "must be >= 0")
grid_points = checked(int, lambda v: v >= 2, "must be >= 2")
positive = checked(float, lambda v: 0.0 < v < math.inf, "must be finite and > 0")
non_negative = checked(float, lambda v: 0.0 <= v < math.inf, "must be finite and >= 0")


def counts(text):
    """Comma list of counts; empty items are skipped."""
    return [count(v) for v in text.split(",") if v != ""]


def int_ranges(text):
    """Comma list of ints, with a..b range syntax; empty items are skipped."""
    out = []
    for part in filter(None, text.split(",")):
        lo, sep, hi = part.partition("..")
        lo, hi = int(lo), int(hi if sep else lo)
        if hi < lo:
            raise ValueError(f"range {part!r} runs backwards")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError("must name at least one value")
    return out


def fmt_ints(values):
    return ",".join(str(v) for v in values)
