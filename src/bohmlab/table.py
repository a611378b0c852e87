"""The one table writer: each column as exact `%.17g` text, a chunk at a time.

Every table of a run (`ensemble.csv`, `trials.csv`, `histograms.csv`)
goes through `write_table`, which writes comma-separated rows, formats
whole columns in numpy and must give the same bytes as `serialize.fmt`
on every value; a column of another dtype raises `TypeError`, since
`fmt` would write it differently.  An int column is formatted as its
doubles: an int within +-2**53 is a double exactly, below 10**16, so
`"%.17g"` writes it as `str` does; `write_table` raises `ValueError` for
an int beyond.  Its cells are cut to the chunk's longest text.  For a
finite nonzero double x with decimal exponent E, the 17-digit
significand |x|*10**(16-E) of `"%.17g"` is formed as |x|*2**(16-E)
times 5**(16-E), held as a double-double table built exactly at
import, with Dekker's TwoProduct (Numer. Math. 18, 224 (1971)), and
rounded half to even.  The product is exact where
5**(16-E) is a double; elsewhere its error is proved below 2**-47, and
only a value within a margin of a rounding tie goes through `"%.17g" % x`,
the fast path with an exact fallback of Grisu3 (Loitsch, PLDI 2010).  The
digits are laid out in fixed or exponent notation as `%.17g` chooses, as
a dense 24-byte cell: the text left-aligned and contiguous, then zero
bytes.  +-0, nan and +-inf are constant cells.

A chunk of rows (about 2**13 values, so no table's text is ever held
whole) is one byte buffer in which each column's cells sit at their
offset.  A fixed column, one that repeats in every row block such as an
ensemble's frame times, is formatted once per table and cut to its
longest text; it, the separators and the newlines are laid out only
when the cell widths or chunk shape change, so the buffer is reused from
chunk to chunk.  One boolean index per chunk drops the zero bytes as
the text is written.  A table of 2**18 rows or more, on two usable CPUs
(`threads.two_threads`), formats the next chunk on a helper thread while
this one is laid out, compacted and written, in chunks of about 2**15
values.  A chunk's text is a function of its values alone, so the bytes
depend neither on the chunk size nor on the thread or CPU count.

The frame dumps, many small tables that share their first column, are
written in two steps instead: `format_cells` formats the grid nodes once
and the amplitudes of a stack of frames (about one chunk) in one call,
and `write_cells` lays out and writes each file from those cells as
space-separated rows, the bytes `write_table` would write with a space
for each comma.

This module and its tables are loaded by the first table a run writes,
so a run that writes none (a no-go check) does not pay for them.
"""

from __future__ import annotations

import math

import numpy as np

from . import threads
from .serialize import create


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
    b = a * _P2[k]
    hi, lo = _two_product(b, _P5_HI[k], _P5_LO[k])
    lo += b * _P5_TAIL[k]
    r = np.rint(lo)
    return hi.astype(np.int64) + r.astype(np.int64), lo - r


def _two_product(b, p_hi, p_lo):
    """hi = fl(b*P) and r = b*P - hi exactly (Dekker's TwoProduct), for
    P = p_hi + p_lo split as by `_split`."""
    hi = b * (p_hi + p_lo)
    b_hi, b_lo = _split(b)
    return hi, ((b_hi * p_hi - hi) + b_hi * p_lo + b_lo * p_hi) + b_lo * p_lo


def _divmod(a, b):
    q = a // b                      # numpy divides by a scalar fast; np.divmod does not
    return q, a - q * b


# A float's cell is 24 bytes: its text, left-aligned, then zero bytes that
# are dropped when a row is written.  The longest `%.17g` text,
# -1.2345678901234567e-308, fills it.  A cell is computed as 8-byte lanes
# whose byte k is bits 8k..8k+7 of a '<u8' value, so shifts and masks act
# alike on either byte order.  The text is first framed in four lanes
# w0-w3: the sign and the "0.000" prefix of E < 0 end at byte 6, digit 0
# of the significand sits at byte 7 and digits 1-16 at bytes 8-23.  The
# digits after the point move up one byte to make room for it, and the
# frame moves down by 7 - (sign and prefix length) bytes into three
# lanes.  Exponent notation is framed as for E = 0, with its "e+XX"
# suffix right after the last digit.


def _lanes(byte_rows):
    return np.frombuffer(b"".join(row.ljust(8, b"\0") for row in byte_rows), "<u8")


_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, 10000)         # of 0000-9999
_DENSE = np.zeros((2, 10000, 8), np.uint8)                         # at bytes 0-3 or 4-7
_DENSE[0, :, :4] = _DENSE[1, :, 4:] = 48 + _DIGITS.T
_DENSE = _DENSE.view("<u8")[..., 0]
# [g, v]: the last nonzero digit of group g holding v (digits 4g+1..4g+4), or 0
_LAST = np.select(_DIGITS[::-1] > 0, [4, 3, 2, 1], 0)
_LAST = np.where(_LAST > 0, _LAST + 4 * np.arange(4)[:, None], 0).astype(np.int8)
_TOP = _lanes(b"\0" * 7 + bytes([48 + i]) for i in range(10))      # digit 0, at byte 7
_EXP = _lanes(b"e%+03d" % e for e in range(_E_MIN, _E_MAX + 1))    # [E - _E_MIN]
_CONST = _lanes(t.ljust(24, b"\0") for t in (b"nan", b"0", b"-0", b"inf", b"-inf")).reshape(5, 3)


def _frame_tables():
    """Tables indexed by (sign * 21 + p + 4) * 17 + last, for the point
    after digit p (p = 0 in exponent notation) and the last nonzero digit
    among 1-16 (or 0).  With q = p if last > p >= 0 (no point otherwise)
    and kept = max(last, p): w0's sign and prefix, ending at byte 6; the
    bits that align the frame; w1 and w2 masks keeping digits
    1..min(q, kept); w1 and w2 masks keeping digits q+1..kept; and the
    point after digit q, at byte 8 + q, in w1 and w2."""
    prefix = [sign + (b"0." + b"0" * (-1 - e) if e < 0 else b"")
              for sign in (b"", b"-") for e in range(-4, 17)]
    i = np.arange(1, 17)                                           # at byte 7 + i
    p, last = np.arange(-4, 17)[:, None, None], np.arange(17)[:, None]
    q = np.where((last > p) & (p >= 0), p, 16)
    kept = np.maximum(last, p)
    masks = np.concatenate([np.where((i <= q) & (i <= kept), 255, 0),
                            np.where((i > q) & (i <= kept), 255, 0),
                            np.where(i == q + 1, ord("."), 0)], axis=-1)
    masks = np.tile(masks.astype(np.uint8).view("<u8").reshape(21 * 17, 6), (2, 1))
    return (np.repeat(_lanes(t.rjust(7, b"\0") for t in prefix), 17),
            np.repeat(np.array([8 * (7 - len(t)) for t in prefix], np.uint64), 17),
            *(m.copy() for m in masks.T))


_LEAD, _ALIGN, _LOW1, _LOW2, _HIGH1, _HIGH2, _DOT1, _DOT2 = _frame_tables()


def _percent_cells(values) -> np.ndarray:
    """(n, 3) lanes of `"%.17g" % v`, one value at a time."""
    return np.array(["%.17g" % v for v in values.tolist()], "S24").view("<u8").reshape(-1, 3)


def _lane(v, g):
    """The 8-digit values v, digit groups g and g + 1 of significands, as
    lanes of their digits at bytes 0-7, and the index of each one's last
    nonzero digit in the significand (or 0)."""
    high, low = _divmod(v, 10**4)
    last = np.maximum(_LAST[g].take(high), _LAST[g + 1].take(low))
    return _DENSE[0].take(high) | _DENSE[1].take(low), last


def _digits(x):
    """The decimal exponent E of each float of x and its 17-digit
    significand: digit 0, digits 1-8 and 9-16 as lanes w1 and w2, and the
    last nonzero digit among 1-16 (or 0).  Also the indices of +-0, nan
    and inf, and of the values that only `_percent_cells` can format: an
    inexact significand within _MARGIN of a half (about 2e-9 of them)."""
    a = np.abs(x)
    # 0 divides by zero, and a signalling NaN is invalid on numpy's non-AVX2 loops
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.log10(a)
    const = np.flatnonzero(~np.isfinite(e))        # 0, nan and inf
    a[const], e[const] = 2.0, 0.0                  # 17 digits: never in the fix-up below
    e = np.floor(e).astype(np.int64)
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
    near = np.flatnonzero(np.abs(frac) > 0.5 - _MARGIN)
    near = near[_P5_TAIL[e[near] - _E_MIN] != 0]       # an exact product is never near
    del a, frac        # here and below: a chunk's memory peak is what it holds at once
    top, d = _divmod(d, 10**16)
    high, low = _divmod(d, 10**8)
    del d
    w1, last = _lane(high, 0)
    w2, last2 = _lane(low, 2)
    return e, top, w1, w2, np.maximum(last, last2, out=last), const, near


def _fast_cells(x) -> np.ndarray:
    """(n, 3) '<u8' lanes of `"%.17g" % v` for every float v of x.

    A finite nonzero v with decimal exponent E is laid out from its
    17-digit significand (`_digits`) in fixed notation for -4 <= E <= 16
    and in exponent notation otherwise; +-0, nan and +-inf are constant
    cells."""
    e, top, w1, w2, last, const, near = _digits(x)
    sci = np.flatnonzero((e < -4) | (e > 16))
    p = e                              # the point follows digit p; E = 0 for exponent notation
    if sci.size:
        p = e.copy()
        p[sci] = 0
    t = ((x < 0) * 21 + p + 4) * 17 + last
    del p
    high1 = w1 & _HIGH1.take(t)
    high2 = w2 & _HIGH2.take(t)
    w1 &= _LOW1.take(t)
    w1 |= _DOT1.take(t) | (high1 << 8)
    w2 &= _LOW2.take(t)
    w2 |= _DOT2.take(t) | (high2 << 8) | (high1 >> 56)
    w3 = high2 >> 56
    del high1, high2
    if sci.size:
        # the suffix goes to byte u of w1-w3: after digit 0, or after the
        # point and digits 1..last
        n = last[sci]
        u = np.where(n > 0, n + 1, 0).astype(np.uint64)
        suffix, at, lane = _EXP.take(e[sci] - _E_MIN), 8 * (u % 8), u // 8
        low, spill = suffix << at, (suffix >> 1) >> (63 - at)
        for k, w in enumerate((w1, w2, w3)):
            w[sci] |= np.where(lane == k, low, 0) | np.where(lane + 1 == k, spill, 0)
    w0 = _LEAD.take(t)
    w0 |= _TOP.take(top)
    s = _ALIGN.take(t)
    del e, top, t
    r = 64 - s
    cells = np.empty((x.size, 3), np.uint64)
    for k, (w, w_next) in enumerate(((w0, w1), (w1, w2), (w2, w3))):
        np.bitwise_or(w >> s, w_next << r, out=cells[:, k])
    if const.size:
        v = x[const]
        cells[const] = _CONST[np.where(np.isnan(v), 0, np.where(v == 0, 1, 3) + np.signbit(v))]
    if near.size:
        cells[near] = _percent_cells(x[near])
    return cells.astype("<u8", copy=False)


def _cut(cells):
    """Cells cut to their longest text."""
    return cells[..., :np.count_nonzero(cells.reshape(-1, cells.shape[-1]).any(axis=0))]


def format_cells(arrays) -> list:
    """The text of each int or float array as zero-padded uint8 cells,
    shaped `a.shape + (width,)`: 24 bytes for a float, the longest
    value's length for an int.  All values are formatted as float64 in
    one batch, and each array's cells are a view of it; an int must lie
    within +-2**53, where its double is exact and `%.17g` writes it as
    `str` does."""
    # the empty float64 array sets the batch's dtype, and lets no array be given
    x = np.concatenate([*(a.ravel() for a in arrays), np.empty(0)])
    lanes = _fast_cells(x).view(np.uint8).reshape(-1, 24)
    cells, at = [], 0
    for a in arrays:
        c = lanes[at:at + a.size].reshape(*a.shape, 24)
        cells.append(c if a.dtype.kind == "f" else _cut(c))
        at += a.size
    return cells


def _rows(cells, fixed, sep: str, buffer: np.ndarray, layout):
    """One chunk of rows as zero-padded text, the first bytes of the uint8
    `buffer` if it is large enough: each column's cells at its offset in
    every row, followed by `sep` or, at the end of a row, a newline.  If
    `layout` (cell widths, chunk shape) is this chunk's, only the columns
    not flagged in `fixed` are written.  Returns buffer, text, layout."""
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in cells))
    widths = tuple(c.shape[-1] for c in cells)
    new = layout != (widths, shape)
    size = math.prod(shape) * (sum(widths) + len(widths))
    if buffer.size < size:
        buffer = np.empty(size, np.uint8)
    text = buffer[:size]
    rows = text.reshape(*shape, -1)
    at = 0
    for c, w, f in zip(cells, widths, fixed):
        if new or not f:
            # as one w-byte item per cell, which numpy copies faster than w bytes
            rows[..., at:at + w].view(f"V{w}")[..., 0] = c.view(f"V{w}")[..., 0]
        if new:
            rows[..., at + w] = ord(sep)
        at += w + 1
    if new:
        rows[..., -1] = ord("\n")
    return buffer, text, (widths, shape)


# Values formatted per chunk, about.  The chunk bounds the memory a table
# uses; on two threads a larger one also hands work between them less
# often.  Writing the seed-7 `equilibrium_harmonic` ensemble (2.05M rows)
# on two threads took 233, 184, 174, 174 and 181 ms at 2**12, 2**13,
# 2**14, 2**15 and 2**16 values per chunk (2-core VM, medians of three
# processes of 7 writes each), so a table on two threads takes 2**15.  A
# table on one thread keeps 2**13: with 2**15 for every table the peak
# memory of a `stern_gerlach --dump-frames` run rose from 37.2 to 40.8 MB.
_CHUNK_VALUES = 2**13
_TWO_THREAD_CHUNK_VALUES = 2**15


def write_table(path, header, columns) -> None:
    """Write the `header` lines, then one line per row of `columns` (int
    or float arrays that broadcast together; rows run over the broadcast
    shape in C order), each value as `fmt` writes it, joined by `,`.
    An int beyond +-2**53 raises ValueError before the file is created.

    A column of length 1 along the first axis is a fixed column; each
    chunk formats about _CHUNK_VALUES values of the others, or
    _TWO_THREAD_CHUNK_VALUES on two threads (see the module docstring)."""
    columns = [np.asarray(c) for c in columns]
    for c in columns:
        if c.dtype.kind not in "iuf":
            raise TypeError(f"cannot write a column of dtype {c.dtype}")
        if c.dtype.kind != "f" and c.size and (c.min() < -2**53 or c.max() > 2**53):
            raise ValueError("cannot write an int beyond +-2**53")
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    columns = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in columns]
    with create(path) as fh:
        fh.write("".join(h + "\n" for h in header).encode())
        if 0 in shape:
            return
        fixed = [np.ascontiguousarray(_cut(format_cells([c])[0])) if c.shape[0] == 1 else None
                 for c in columns]
        per_row = sum(math.prod(c.shape[1:]) for c, f in zip(columns, fixed) if f is None)
        two_threads = threads.two_threads(math.prod(shape))
        chunk = _TWO_THREAD_CHUNK_VALUES if two_threads else _CHUNK_VALUES
        step = max(1, chunk // max(1, per_row))

        def chunk_cells(lo):
            fresh = iter(format_cells([c[lo:lo + step]
                                       for c, f in zip(columns, fixed) if f is None]))
            return [next(fresh) if f is None else f for f in fixed]

        buffer = np.empty(0, np.uint8)
        layout, is_fixed = None, [f is not None for f in fixed]
        with threads.Helper(two_threads) as helper:
            pending = helper.submit(chunk_cells, 0)
            for lo in range(0, shape[0], step):
                cells = pending()
                if lo + step < shape[0]:
                    pending = helper.submit(chunk_cells, lo + step)
                buffer, text, layout = _rows(cells, is_fixed, ",", buffer, layout)
                del cells
                fh.write(text[text != 0])


def write_cells(path, header, cells) -> None:
    """Write the `header` lines, then one line per row of `cells`, the
    cells of (rows,) columns from `format_cells`, joined by spaces: the
    bytes `write_table` writes for them, a space for each comma.  It
    serves the frame dumps, formatted a stack at a time, and lays out the
    whole text in one buffer."""
    _, text, _ = _rows(cells, [False] * len(cells), " ", np.empty(0, np.uint8), None)
    with create(path) as fh:
        fh.write("".join(h + "\n" for h in header).encode())
        fh.write(text[text != 0])
