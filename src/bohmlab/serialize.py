"""Deterministic text serialization of numbers and small report trees.

Doubles are written with 17 significant digits (`"%.17g"`), which
round-trips any IEEE-754 double.  `fmt` defines a scalar's text; the one
table writer, `write_table`, formats whole columns in numpy and must give
the same bytes as `fmt` on every value.  For a finite nonzero x with
decimal exponent E it forms the 17-digit significand |x|*10**(16-E) as
|x|*2**(16-E) times 5**(16-E), held as a double-double table built
exactly at import, with Dekker's TwoProduct (Numer. Math. 18, 224 (1971)),
and rounds it half to even; the digits are laid out in fixed or exponent
notation as `%.17g` chooses.  The product is exact where 5**(16-E) is a
double; elsewhere its error is proved below 2**-47, and only a value
within a margin of a rounding tie goes through `"%.17g" % x`, the fast
path with an exact fallback of Grisu3 (Loitsch, PLDI 2010).  +-0, nan and
+-inf are constant cells.
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


_E_MIN, _E_MAX = -325, 309   # the decimal exponents of all finite doubles, +-1


def _pow5(s):
    """5**s as a double hi and the double nearest 5**s - hi, both
    correctly rounded from exact integer ratios."""
    num, den = (5**s, 1) if s >= 0 else (1, 5**-s)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


def _split(a):
    t = 134217729.0 * a                  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


# [E - _E_MIN]: 2**(16 - E), and 5**(16 - E) as the double-double _P5_HI
# + _P5_LO + _P5_TAIL (exact for -6 <= E <= 16, where the tail is 0).  HI
# and LO are the two halves of at most 26 significant bits of the double
# nearest 5**(16 - E), for Dekker's exact product.
_P2 = np.ldexp(1.0, 16 - np.arange(_E_MIN, _E_MAX + 1))
_P5, _P5_TAIL = (np.array(t) for t in zip(*(_pow5(16 - e) for e in range(_E_MIN, _E_MAX + 1))))
_P5_HI, _P5_LO = _split(_P5)
_MARGIN = 1e-9          # > 4 * 2**-47, the error bound of _significand


def _significand(a, e):
    """`a*10**(16-e)` rounded half to even to an int64, and the product
    minus that integer, in [-0.5, 0.5] up to the error below.

    With s = 16 - e, b = a*2**s is exact and a*10**s = b*5**s.  Write
    5**s = P + t + u with P = _P5_HI + _P5_LO and t = _P5_TAIL: |t| <=
    2**-53 P and |u| <= 2**-106 P.  Dekker's TwoProduct gives b*P = hi + r
    exactly, and lo = fl(r + fl(b*t)).  For a product in [10**16, 10**17),
    between 2**53 and 2**57, hi is an even integer, |r| <= 8, |b*t| < 16
    and so |lo| < 32: lo misses r + b*t + b*u by at most 2**-49 (the sum)
    + 2**-49 (fl(b*t)) + 2**-49 (b*u) < 2**-47.  So the integer is right
    unless the returned fraction lies within 2**-47 of +-0.5.  When t = 0
    (0 <= s <= 22) the error is 0: hi + lo is the product itself, exact
    ties included."""
    k = e - _E_MIN
    b, p_hi, p_lo = a * _P2[k], _P5_HI[k], _P5_LO[k]
    hi = b * (p_hi + p_lo)
    b_hi, b_lo = _split(b)
    lo = (((b_hi * p_hi - hi) + b_hi * p_lo + b_lo * p_hi) + b_lo * p_lo) + b * _P5_TAIL[k]
    r = np.rint(lo)
    return hi.astype(np.int64) + r.astype(np.int64), lo - r


def _divmod(a, b):
    q = a // b                      # numpy divides by a scalar fast; np.divmod does not
    return q, a - q * b


# A float's cell is 40 bytes, read as five 8-byte lanes.  In fixed
# notation (-4 <= E <= 16) the sign and the "0.000" prefix of E < 0 sit
# in bytes 0-5, then digit i of the significand at byte 6 + 2i, each
# followed by a slot for the point.  In exponent notation the sign, digit
# 0 and the point sit as for E = 0, digits 1-16 follow contiguously in
# bytes 8-23 and the "e+XX" suffix fills bytes 24-28.  Zero bytes are
# padding, dropped when a row is written.  The tables are built from
# bytes, so their lanes combine with `|` and `&` on either byte order.


def _lanes(byte_rows):
    return np.frombuffer(b"".join(row.ljust(8, b"\0") for row in byte_rows), np.uint64)


_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, 10000)         # of 0000-9999
_QUAD = np.zeros((10000, 8), np.uint8)                             # at bytes 0, 2, 4, 6
_QUAD[:, ::2] = 48 + _DIGITS.T
_QUAD = _QUAD.view(np.uint64).ravel()
_DENSE = np.zeros((2, 10000, 8), np.uint8)                         # at bytes 0-3 or 4-7
_DENSE[0, :, :4] = _DENSE[1, :, 4:] = 48 + _DIGITS.T
_DENSE = _DENSE.view(np.uint64)[..., 0]
# [k + 12]: keep the first k digits of a group, k clamped to 0-4
_KEEP = _lanes(b"\xff" * 2 * min(max(k, 0), 4) for k in range(-12, 17))
# [k + 8]: keep the first k digits of a contiguous lane, k clamped to 0-8
_KEEP_DENSE = _lanes(b"\xff" * min(max(k, 0), 8) for k in range(-8, 17))
# [g, v]: the last nonzero digit of group g holding v (digits 4g+1..4g+4), or 0
_LAST = np.select(_DIGITS[::-1] > 0, [4, 3, 2, 1], 0)
_LAST = np.where(_LAST > 0, _LAST + 4 * np.arange(4)[:, None], 0).astype(np.int8)
_TOP = _lanes(b"\0" * 6 + bytes([48 + i]) for i in range(10))      # digit 0, at byte 6
_LEAD = _lanes(sign + (b"0." + b"0" * (-1 - e) if e < 0 else b"")  # [sign, E + 4]
               for sign in (b"\0", b"-") for e in range(-4, 17))
_EXP = _lanes(b"e%+03d" % e for e in range(_E_MIN, _E_MAX + 1))    # [E - _E_MIN]
_CONST = np.frombuffer(b"".join(t.ljust(40, b"\0") for t in (b"nan", b"0", b"-0", b"inf", b"-inf")),
                       np.uint64).reshape(5, 5)


def _percent_cells(values) -> np.ndarray:
    """(n, 5) uint64 cells of `"%.17g" % v`, one value at a time."""
    return np.array(["%.17g" % v for v in values.tolist()], "S40").view(np.uint64).reshape(-1, 5)


def _fast_cells(x) -> np.ndarray:
    """(n, 5) uint64 cells of `"%.17g" % v` for every float v of x.

    A finite nonzero v with decimal exponent E is laid out from its
    17-digit significand (`_significand`) in fixed notation for -4 <= E
    <= 16 and in exponent notation otherwise; +-0, nan and +-inf are
    constant cells.  Only an inexact significand within _MARGIN of a
    half (about 2e-9 of them) goes through `_percent_cells`."""
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        lg = np.log10(a)
    const = np.flatnonzero(~np.isfinite(lg))       # 0, nan and inf
    a[const], lg[const] = 1.0, 0.0
    e = np.floor(lg).astype(np.int64)
    d, frac = _significand(a, e)
    # log10 can be off by one next to a power of ten; d must have 17 digits.
    # d = 10**16 can also come from an E one too large: try E - 1 and keep
    # it unless its significand rounds up to 10**17.
    fix = np.flatnonzero((d >= 10**17) | (d <= 10**16))
    if fix.size:
        step = np.where(d[fix] >= 10**17, 1, -1)
        d_fix, frac_fix = _significand(a[fix], e[fix] + step)
        ok = d_fix < 10**17
        fix = fix[ok]
        e[fix] += step[ok]
        d[fix], frac[fix] = d_fix[ok], frac_fix[ok]
    top, d = _divmod(d, 10**16)
    high, low = _divmod(d, 10**8)
    groups = [*_divmod(high, 10**4), *_divmod(low, 10**4)]
    last = _LAST[0, groups[0]]
    for g in (1, 2, 3):
        np.maximum(last, _LAST[g, groups[g]], out=last)
    sci = np.flatnonzero((e < -4) | (e > 16))
    p = e                              # the point follows digit p; E = 0 for exponent notation
    if sci.size:
        p = e.copy()
        p[sci] = 0
    kept = np.maximum(last, p)         # trailing zeros go, integer digits stay
    cells = np.empty((x.size, 5), np.uint64)
    cells[:, 0] = _LEAD[(x < 0) * 21 + p + 4] | _TOP[top]
    for g, v in enumerate(groups):
        cells[:, g + 1] = _QUAD[v] & _KEEP[kept - 4 * g + 12]
    point = np.flatnonzero((last > p) & (p >= 0))
    cells.view(np.uint8).reshape(-1)[40 * point + 7 + 2 * p[point]] = ord(".")
    if sci.size:
        g0, g1, g2, g3 = (v[sci] for v in groups)
        kept = last[sci]
        cells[sci, 1] = (_DENSE[0, g0] | _DENSE[1, g1]) & _KEEP_DENSE[kept + 8]
        cells[sci, 2] = (_DENSE[0, g2] | _DENSE[1, g3]) & _KEEP_DENSE[kept]
        cells[sci, 3] = _EXP[e[sci] - _E_MIN]
        cells[sci, 4] = 0
    if const.size:
        v = x[const]
        cells[const] = _CONST[np.where(np.isnan(v), 0, np.where(v == 0, 1, 3) + np.signbit(v))]
    near = np.flatnonzero(np.abs(frac) > 0.5 - _MARGIN)
    if near.size:
        near = near[_P5_TAIL[e[near] - _E_MIN] != 0]     # an exact product is never near
        cells[near] = _percent_cells(x[near])
    return cells


def _cells(arrays) -> list:
    """The text of each int or float array as zero-padded uint8 cells,
    shaped `a.shape + (width,)`, without the bytes that are padding in
    every cell.  The float values of all arrays are formatted together."""
    x = np.concatenate([a.ravel() for a in arrays if a.dtype.kind == "f"] + [np.zeros(0)])
    floats = _fast_cells(x)
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
