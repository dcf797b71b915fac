"""The text of json.dumps(doc, sort_keys=True, indent=1), byte for byte,
formatted column by column, for report documents whose lists of records may
be held as numpy columns (``Records``).

Each key of a list of records is formatted once for all its records, and
each record's text is one join of its labels and its items' texts.  In a
float column where the values are finite and at most half are distinct,
each distinct value is formatted once.  ``json_pieces`` yields the text in
pieces, a ``Records`` value a block of records at a time, so a writer need
not hold the whole text.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from json.encoder import encode_basestring_ascii
from struct import pack
from typing import Callable

import numpy as np


class Records:
    """A list of records held as columns: record i maps each name to row i of
    its column, a list where the column has two axes.  ``json_pieces``
    writes it as that list of dicts without building them."""

    def __init__(self, columns: dict[str, np.ndarray]):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def tolist(self) -> list[dict]:
        """The records, one dict per row."""
        names = list(self.columns)
        return [dict(zip(names, rec)) for rec in zip(*(v.tolist() for v in self.columns.values()))]


# the texts of values of these exact types; json.dumps writes any other type
_LITERALS = {None: "null", False: "false", True: "true"}
_FORMATS = {str: encode_basestring_ascii, int: repr,
            bool: _LITERALS.__getitem__, type(None): _LITERALS.__getitem__}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _column(values: list, pad: str) -> list[str]:
    """json.dumps(v, sort_keys=True, indent=1) of each v in values, with pad
    before each line after the first.  A column of one type takes one pass,
    each distinct float formatted once where at most half are distinct; lists
    of one length and dicts of one key set are joined from their items' columns."""
    kind = type(values[0]) if len(set(map(type, values))) == 1 else None
    if kind is float:
        return _float_format(values)(values)
    if kind in _FORMATS:
        return list(map(_FORMATS[kind], values))
    # dicts of one key set: the union of their keys has as many as each of them
    same_keys = kind is dict and len(values) * len(set().union(*values)) == sum(map(len, values))
    if kind is list and len(set(map(len, values))) == 1:
        n = len(values[0])
        flat = _column(list(itertools.chain.from_iterable(values)), pad + " ")
        columns, labels, brackets = [flat[j::n] for j in range(n)], [""] * n, "[]"
    elif same_keys and all(type(k) is str for k in values[0]):
        keys = sorted(values[0])
        columns = [_column([d[k] for d in values], pad + " ") for k in keys]
        labels, brackets = [encode_basestring_ascii(k) + ": " for k in keys], "{}"
    else:
        return [json.dumps(v, sort_keys=True, indent=1).replace("\n", "\n" + pad) for v in values]
    if not labels:
        return [brackets] * len(values)
    return _join(columns, labels, brackets, pad)


def _float_format(values: list[float]) -> Callable[[list[float]], list[str]]:
    """The function from runs of the floats values to json.dumps's texts of
    them.  Where the values are finite and at most half are distinct, each
    distinct value is formatted once, here."""
    distinct = dict.fromkeys(values)
    if not math.isfinite(sum(distinct)):  # a finite sum has finite terms
        return lambda run: [_NONFINITE.get(t, t) for t in map(repr, run)]
    if 2 * len(distinct) > len(values):
        return lambda run: list(map(repr, run))
    memo = dict(zip(distinct, map(repr, distinct))).__getitem__
    # -0.0 shares 0.0's memo entry: values that may hold it format their zeros anew
    if 0.0 in distinct and pack("<d", -0.0) in pack(f"<{len(values)}d", *values):
        return lambda run: [memo(v) if v else repr(v) for v in run]
    return lambda run: list(map(memo, run))


def _join(columns: list[list[str]], labels: list[str], brackets: str, pad: str) -> list[str]:
    """The texts of the lists or dicts whose items' texts are the columns, one
    column per label, with pad before each line after the first."""
    # each value's text: its opening bracket, each item after a separator and label, the closing one
    first, sep, close = brackets[0] + "\n" + pad + " ", ",\n" + pad + " ", "\n" + pad + brackets[1]
    heads = [first + labels[0], *map(sep.__add__, labels[1:])]
    parts = itertools.chain.from_iterable(zip(map(itertools.repeat, heads), columns))
    return list(map("".join, zip(*parts, itertools.repeat(close))))


# records formatted and written at a time, which bounds the writer's transient memory
_BLOCK = 32


def _records_text(records: Records, pad: str):
    """The text of json.dumps(records.tolist(), sort_keys=True, indent=1), with pad
    before each line after the first, in pieces of _BLOCK records.  A float
    column's distinct values are found once, over the column; any other column
    is formatted by ``_column`` block by block."""
    names = sorted(records.columns)
    columns = [records.columns[k] for k in names]
    labels = [encode_basestring_ascii(k) + ": " for k in names]
    inner = pad + " "
    formats = [
        _float_format(c.tolist()) if c.dtype == float and c.ndim == 1
        else functools.partial(_column, pad=inner + " ")
        for c in columns
    ]
    start = "[\n" + inner
    for i in range(0, len(records), _BLOCK):
        texts = [fmt(c[i : i + _BLOCK].tolist()) for fmt, c in zip(formats, columns)]
        yield start + (",\n" + inner).join(_join(texts, labels, "{}", inner))
        start = ",\n" + inner
    yield "[]" if not len(records) else "\n" + pad + "]"


def json_pieces(value, pad: str = ""):
    """The text of json.dumps(value, sort_keys=True, indent=1), with pad before
    each line after the first, in pieces: dicts with str keys item by item, and
    ``Records`` as the list of dicts they hold, in blocks of _BLOCK records."""
    if isinstance(value, Records):
        yield from _records_text(value, pad)
    elif type(value) is dict and value and all(type(k) is str for k in value):
        start = "{\n" + pad + " "
        for key in sorted(value):
            yield start + encode_basestring_ascii(key) + ": "
            yield from json_pieces(value[key], pad + " ")
            start = ",\n" + pad + " "
        yield "\n" + pad + "}"
    else:
        yield _column([value], pad)[0]
