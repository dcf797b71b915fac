"""The text of json.dumps(doc, sort_keys=True, indent=1), byte for byte, in
pieces, for documents whose lists of records may be held as numpy columns
(``Records``).  A ``Records`` value is planned once and written a block of
records at a time: the distinct values of a float column where they are
finite and at most half the values, and a bool column's distinct rows, are
formatted once; each record's text is one join of its labels and items."""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii

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


_LITERALS = {None: "null", False: "false", True: "true"}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(v: float) -> str:
    return _NONFINITE.get(text := repr(v), text)


# the texts of values of these exact types; json.dumps writes any other type
_FORMATS = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
            bool: _LITERALS.__getitem__, type(None): _LITERALS.__getitem__}


def _text(value, pad: str) -> str:
    """json.dumps(value, sort_keys=True, indent=1), with pad before each line
    after the first."""
    kind = type(value)
    if kind in _FORMATS:
        return _FORMATS[kind](value)
    inner = pad + " "
    if kind is list:
        items = [_text(v, inner) for v in value]
    elif kind is dict and all(type(k) is str for k in value):
        items = [encode_basestring_ascii(k) + ": " + _text(value[k], inner) for k in sorted(value)]
    else:
        return json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n" + pad)
    brackets = "[]" if kind is list else "{}"
    if not items:
        return brackets
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + brackets[1]


def _join(columns: list[list[str]], labels: list[str], brackets: str, pad: str) -> list[str]:
    """The texts of the lists or dicts whose items' texts are the columns, one
    column per label, with pad before each line after the first."""
    # each value's text: its opening bracket, each item after a separator and label, the closing one
    first, sep, close = brackets[0] + "\n" + pad + " ", ",\n" + pad + " ", "\n" + pad + brackets[1]
    heads = [first + labels[0], *map(sep.__add__, labels[1:])]
    parts = itertools.chain.from_iterable(zip(map(itertools.repeat, heads), columns))
    return list(map("".join, zip(*parts, itertools.repeat(close))))


# the weights of a bool row's items in its code, which is exact in a float
_CODES = 2.0 ** np.arange(53)


def _bools(code: float, shape: tuple):
    """The bool (shape ()) or the list of bools (shape (w,)) whose code is code."""
    return [code // 2**b % 2 == 1 for b in range(shape[0])] if shape else code == 1


def _plan(columns: list[np.ndarray], pad: str) -> tuple:
    """How to write records whose items have pad before each line after the
    first: the float rows formatted value by value, the memo's texts and the
    memo rows as indices there, and per column the function from a value of
    its row to its text (None for a memo row)."""
    n = len(columns[0])
    rows, formats = [], []  # per column its row and, if it always takes the memo, its text
    for c in columns:
        if c.dtype.char == "d" and c.ndim == 1:
            rows.append(c)
            formats.append(None)
        elif c.dtype.char == "?" and c.ndim <= 2 and c[0].size <= 53:  # by its rows' codes
            rows.append(c.reshape(n, -1) @ _CODES[: c[0].size])
            formats.append(lambda v, shape=c[0].shape: _text(_bools(v, shape), pad))
        else:  # any other column by its values' indices: each value formatted once
            rows.append(np.arange(n, dtype=float))
            formats.append(lambda v, values=c.tolist(): _text(values[int(v)], pad))
    table = np.array(rows)
    # each row sorted by its values' bits: equal bits are equal values, and -0.0 is not 0.0
    bits = np.sort(table.view(np.int64), axis=1)
    first = np.ones(bits.shape, dtype=bool)
    first[:, 1:] = bits[:, 1:] != bits[:, :-1]
    finite = np.logical_and.reduce(np.isfinite(table), axis=1).tolist()
    counts = np.add.reduce(first, axis=1).tolist()
    memo = [f is not None or ok and 2 * k <= n for f, ok, k in zip(formats, finite, counts)]
    memo = np.array(memo, dtype=bool)
    first = first[memo]
    values, texts = iter(bits[memo][first].view(float).tolist()), []
    for f, k, m in zip(formats, counts, memo.tolist()):
        texts += map(f or repr, itertools.islice(values, k if m else 0))
    # a value's index in the memo counts the distinct values before it
    index, at = np.empty(first.shape, dtype=np.int32), np.arange(len(first))[:, None]
    ranks = first.cumsum(dtype=np.int32).reshape(first.shape) - 1
    index[at, table.view(np.int64)[memo].argsort(axis=1)] = ranks
    plan = [None if m else repr if ok else _float_text for m, ok in zip(memo.tolist(), finite)]
    return table[~memo], np.array(texts, dtype=object), index, plan


# records formatted and written at a time, which bounds the writer's transient memory
_BLOCK = 32


def _records_text(records: Records, pad: str):
    """The text of json.dumps(records.tolist(), sort_keys=True, indent=1), with pad
    before each line after the first, in pieces of _BLOCK records."""
    if not len(records):
        yield "[]"
        return
    names = sorted(records.columns)
    labels, inner = [encode_basestring_ascii(k) + ": " for k in names], pad + " "
    table, texts, index, plan = _plan([records.columns[k] for k in names], inner + " ")
    start = "[\n" + inner
    for i in range(0, len(records), _BLOCK):
        block = slice(i, i + _BLOCK)
        plain, memo = iter(table[:, block].tolist()), iter(texts[index[:, block]].tolist())
        columns = [next(memo) if f is None else map(f, next(plain)) for f in plan]
        yield start + (",\n" + inner).join(_join(columns, labels, "{}", inner))
        start = ",\n" + inner
    yield "\n" + pad + "]"


def json_pieces(value, pad: str = ""):
    """The text of json.dumps(value, sort_keys=True, indent=1), with pad before
    each line after the first, in pieces: ``Records`` as the list of dicts they
    hold, in blocks of _BLOCK records, and dicts with str keys that hold a dict
    or ``Records`` item by item."""
    if isinstance(value, Records):
        yield from _records_text(value, pad)
    elif type(value) is dict and all(type(k) is str for k in value) and any(
            type(v) is dict or isinstance(v, Records) for v in value.values()):
        start = "{\n" + pad + " "
        for key in sorted(value):
            yield start + encode_basestring_ascii(key) + ": "
            yield from json_pieces(value[key], pad + " ")
            start = ",\n" + pad + " "
        yield "\n" + pad + "}"
    else:
        yield _text(value, pad)
