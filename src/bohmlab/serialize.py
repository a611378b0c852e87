"""Deterministic text serialization of numbers and small report trees.

Doubles are written with 17 significant digits (`"%.17g"`), which
round-trips any IEEE-754 double.  `fmt` defines a scalar's text; the one
table writer, `write_table`, formats whole columns in numpy and must give
the same bytes as `fmt` on every value.  For a finite 1e-4 <= |x| < 1e16
it forms the 17-digit significand |x|*10**(16-E) exactly as a
double-double (Dekker's TwoProduct, Numer. Math. 18, 224 (1971)) and
rounds it half to even; any other float goes through `"%.17g" % x`.
"""

from __future__ import annotations

import math

import numpy as np


def fmt(x) -> str:
    """Canonical text for one scalar (17 significant digits for floats)."""
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, complex):
        return f"{fmt(x.real)}{'+' if x.imag >= 0 or math.isnan(x.imag) else '-'}{fmt(abs(x.imag))}j"
    if isinstance(x, float):
        return "%.17g" % x           # nan (of either sign), inf, -inf, -0 included
    return str(x)


# 10**s is exact for s <= 22; each power is also split into two halves
# of at most 26 significant bits, for Dekker's exact product.
_POW10 = 10.0 ** np.arange(23)


def _split(a):
    t = 134217729.0 * a                  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _significand(a, e):
    """`a*10**(16-e)` rounded half to even to an int64.  The product is
    formed exactly as hi + lo; when it is at least 1e16 > 2**53, hi is an
    even integer, so rounding lo alone rounds the sum."""
    s = 16 - e
    hi = a * _POW10[s]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[s], _POW10_LO[s]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


# A float's cell is 40 bytes, read as five 8-byte lanes: the sign and the
# "0.000" prefix of E < 0 in bytes 0-5, then digit i of the significand at
# byte 6 + 2i, each followed by a slot for the point.  Zero bytes are
# padding, dropped when a row is written.  The tables are built from
# bytes, so their lanes combine with `|` and `&` on either byte order.


def _lanes(byte_rows):
    return np.frombuffer(b"".join(row.ljust(8, b"\0") for row in byte_rows), np.uint64)


_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, 10000)         # of 0000-9999
_QUAD = np.zeros((10000, 8), np.uint8)                             # at bytes 0, 2, 4, 6
_QUAD[:, ::2] = 48 + _DIGITS.T
_QUAD = _QUAD.view(np.uint64).ravel()
# [k + 12]: keep the first k digits of a group, k clamped to 0-4
_KEEP = _lanes(b"\xff" * 2 * min(max(k, 0), 4) for k in range(-12, 17))
_LAST_NONZERO = np.select(_DIGITS[::-1] > 0, [4, 3, 2, 1], -64)     # last nonzero digit
_TOP = _lanes(b"\0" * 6 + bytes([48 + i]) for i in range(10))      # digit 0, at byte 6
_LEAD = _lanes(sign + (b"0." + b"0" * (-1 - e) if e < 0 else b"")  # [sign, E + 4]
               for sign in (b"\0", b"-") for e in range(-4, 16))


def _fast_cells(x) -> np.ndarray:
    """(n, 5) uint64 cells of `"%.17g" % v` for finite 1e-4 <= |v| < 1e16."""
    a = np.abs(x)
    e = np.floor(np.log10(a)).astype(np.int64)
    d = _significand(a, e)
    # log10 can be off by one next to a power of ten; d must have 17 digits
    fix = np.flatnonzero((d >= 10**17) | (d < 10**16))
    e[fix] += np.where(d[fix] >= 10**17, 1, -1)
    d[fix] = _significand(a[fix], e[fix])
    top, d = np.divmod(d, 10**16)
    groups = [*np.divmod(d // 10**8, 10**4), *np.divmod(d % 10**8, 10**4)]
    last = np.max([0 * e] + [_LAST_NONZERO[v] + 4 * g for g, v in enumerate(groups)], axis=0)
    kept = np.maximum(last, e)       # trailing zeros go, integer digits stay
    cells = np.empty((x.size, 5), np.uint64)
    cells[:, 0] = _LEAD[(x < 0) * 20 + e + 4] | _TOP[top]
    for g, v in enumerate(groups):
        cells[:, g + 1] = _QUAD[v] & _KEEP[kept - 4 * g + 12]
    point = np.flatnonzero((last > e) & (e >= 0))
    cells.view(np.uint8).reshape(-1)[40 * point + 7 + 2 * e[point]] = ord(".")
    return cells


def _cells(arrays) -> list:
    """The text of each int or float array as zero-padded uint8 cells,
    shaped `a.shape + (width,)`, without the bytes that are padding in
    every cell.  The float values of all arrays are formatted together."""
    x = np.concatenate([a.ravel() for a in arrays if a.dtype.kind == "f"] + [np.zeros(0)])
    fast = (np.abs(x) >= 1e-4) & (np.abs(x) < 1e16)
    floats = _fast_cells(np.where(fast, x, 1.0))      # the others are overwritten below
    text = np.array(["%.17g" % v for v in x[~fast].tolist()], dtype="S40")
    floats[~fast] = text.view(np.uint64).reshape(-1, 5)
    cells, at = [], 0
    for a in arrays:
        if a.dtype.kind == "f":
            lanes, at = floats[at:at + a.size], at + a.size
        else:
            lanes = a.ravel().astype("S24").view(np.uint64).reshape(a.size, 3)
        used = np.bitwise_or.reduce(np.ascontiguousarray(lanes.T), axis=1).view(np.uint8) != 0
        cells.append(lanes.view(np.uint8)[:, used].reshape(*a.shape, -1))
    return cells


_CHUNK_VALUES = 2**13          # rows are written in chunks of about this many values


def write_table(path, header, columns, sep: str = ",") -> None:
    """Write the `header` lines, then one line per row of `columns` (int
    or float arrays that broadcast together; rows run over the broadcast
    shape in C order), each value as `fmt` writes it, joined by `sep`.
    Rows are written a chunk at a time, never the whole text at once."""
    columns = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    columns = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in columns]
    with open(path, "wb") as fh:
        fh.write("".join(h + "\n" for h in header).encode())
        if 0 in shape:
            return
        step = max(1, _CHUNK_VALUES // (math.prod(shape[1:]) * len(columns)))
        for lo in range(0, shape[0], step):
            hi = min(lo + step, shape[0])
            cells = _cells([c[lo:hi] if c.shape[0] > 1 else c for c in columns])
            rows = np.empty((hi - lo, *shape[1:], sum(c.shape[-1] + 1 for c in cells)), np.uint8)
            at = 0
            for c in cells:
                rows[..., at:at + c.shape[-1]] = c
                rows[..., at + c.shape[-1]] = ord(sep)
                at += c.shape[-1] + 1
            rows[..., -1] = ord("\n")
            fh.write(rows.tobytes().translate(None, b"\0"))


_JSON_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def json_text(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and stable key order.

    Supports the types that appear in run reports: dict, list/tuple,
    str, bool, None, int, float.  Dict keys keep insertion order so the
    emitted bytes are a pure function of the report content.  An
    integral float gains `.0` (`2.0`, `-0.0`) so that it reads back as a
    float; nan and inf, which JSON cannot hold, are written as the
    strings `"nan"`, `"inf"` and `"-inf"`.
    """
    pad = " " * indent
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return fmt(obj)
    if isinstance(obj, float):
        text = fmt(obj)
        if not math.isfinite(obj):
            return '"' + text + '"'
        return text + ".0" if text.lstrip("-").isdigit() else text
    if isinstance(obj, str):
        return '"' + obj.translate(_JSON_ESCAPES) + '"'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + json_text(v, indent + 2) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (pad + '  "' + str(k).translate(_JSON_ESCAPES) + '": ' + json_text(v, indent + 2)
                 for k, v in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
