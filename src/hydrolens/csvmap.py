"""The detection map's CSV rows, each float's %.17g text made in bulk by numpy.

format(v, ".17g") rounds v correctly to 17 significant digits, ties to
even, and writes d * 10^(k - 16), d a 17-digit integer, as a plain decimal
when -4 <= k <= 16, trailing zeros dropped.  _slots makes those bytes for a
block of values at once, for each v in [1e-4, 1e16):

- k = floor(log10 v) from np.log10 and s = 16 - k, so 0 <= s <= 21 and 10^s
  is an exact double.  Dekker's two-product gives v * 10^s = p + err
  exactly, p the rounded product and err a double.
- p + err is compared exactly with 1e16 and 1e17 by the sign of
  (p - 1e16) + err: the difference is exact near 1e16 (Sterbenz) and far
  larger than err elsewhere, and a rounded sum has the sign of the exact one.
- In [1e16, 1e17), p > 2^53 is an even integer and |err| <= 8, so
  d = p + rint(err), in int64, is p + err rounded half to even: d is the
  17 digits, unless it rounded up to 10^17.
- The digits of d come four at a time from a table of the ASCII digits of
  0..9999, and per-k tables of words put the point, or "0." and zeros below
  1, in place by shifts and masks.

A value outside [1e-4, 1e16), which every value that %.17g writes with an
exponent is, one that log10 put a decade off (next to a power of ten), and
one that rounds up to 10^17 take Python's "%.17g".  A slot is three uint64
words whose little-endian bytes are the text, its separator and zero bytes.
Only the CSV branch of cli._write_map imports this module.
"""

from __future__ import annotations

import numpy as np

# Grid cells per block: a block takes about 1 kB per cell at its peak.
BLOCK_CELLS = 512
_POW10 = np.array([float(10**s) for s in range(22)])  # exact doubles


def _halves(x):
    """Veltkamp's split of x into two halves of at most 26 significant bits."""
    c = x * 134217729.0  # 2^27 + 1
    high = c - (c - x)
    return high, x - high


def _words(rows):
    """Byte strings of up to 24 bytes as rows of three uint64 words, each
    word's bytes in little-endian order, zero padded."""
    data = b"".join(r.ljust(24, b"\0") for r in rows)
    if len(data) != 24 * len(rows):
        raise ValueError("a slot holds at most 24 bytes")
    return np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(-1, 3)


_POW10_HALVES = _halves(_POW10)
# Built by broadcasting over one axis per digit, so that no temporary is
# larger than the table.  _QUADS[q] holds the ASCII digits of q = 0..9999,
# most significant in the lowest byte.
_digit = np.arange(48, 58, dtype=np.uint64)
_QUADS = (_digit[:, None, None, None] | _digit[:, None, None] << 8 | _digit[:, None] << 16
          | _digit << 24).ravel()
# _TRAILING[q]: the trailing zeros of q's four digits, four for q = 0.
_zero = (np.arange(10) == 0).astype(np.uint8)
_TRAILING = (_zero + _zero[:, None] * _zero + _zero[:, None, None] * _zero[:, None] * _zero
             + _zero[:, None, None, None] * _zero[:, None, None] * _zero[:, None] * _zero).ravel()
del _digit, _zero
# Row j keeps a slot's first j bytes, and puts the separator at byte j.
_KEEP = _words([b"\xff" * j for j in range(24)]).T.copy()
_SEP = _words([b"\0" * j + b"," for j in range(24)]).T.copy()
# Row k + 5, for k = -5..16: the digits' first k + 1 bytes stay (_LOW), the
# rest move up by _SHIFT bits, and _INSERT fills the gap: "." after the
# integer part, or "0." and -k - 1 zeros before the digits of a value below
# 1.  Row 0, k = -5, only serves values that Python formats.
_LOW = _words([b"\xff" * max(k + 1, 0) for k in range(-5, 17)]).T.copy()
_INSERT = _words([b"\0" * (k + 1) + b"." if k >= 0 else b"0." + b"0" * (-k - 1)
                  for k in range(-5, 17)]).T.copy()
_SHIFT = np.array([8 * max(1, 1 - k) for k in range(-5, 17)], dtype=np.uint64)
# The last field of a row: detected, 0 or 1.
_DETECTED = _words([b"0\n", b"1\n"])


def _rounded(x):
    """(d, k, ok): v = x rounded to 17 digits is d * 10^(k - 16), with
    10^16 <= d < 10^17, where ok."""
    near = (x >= 1e-4) & (x < 1e16)
    v = np.where(near, x, 1.0)
    s = 16 - np.floor(np.log10(v)).astype(np.intp)
    vh, vl = _halves(v)
    bh, bl = _POW10_HALVES[0][s], _POW10_HALVES[1][s]
    p = v * _POW10[s]
    err = ((vh * bh - p) + vh * bl + vl * bh) + vl * bl
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    ok = near & ((p - 1e16) + err >= 0) & ((p - 1e17) + err < 0) & (d < 10**17)
    return d, 16 - s, ok


def _digits(d):
    """(w, zeros): the 17 digits of each d in the first 17 bytes of the three
    words w, and how many of them are trailing zeros."""
    high = d // 10**8
    l2 = d - high * 10**8
    l1 = l2 // 10**4
    l2 -= l1 * 10**4
    top = high // 10**8
    h2 = high - top * 10**8
    h1 = h2 // 10**4
    h2 -= h1 * 10**4
    # Groups of four looked at from the last while all are zero.
    zeros = _TRAILING[l2]
    at = np.flatnonzero(l2 == 0)
    for group in (l1, h2, h1):
        if not at.size:
            break
        g = group[at]
        zeros[at] += _TRAILING[g]
        at = at[g == 0]
    high = _QUADS[h1] | _QUADS[h2] << 32
    low = _QUADS[l1] | _QUADS[l2] << 32
    return (_QUADS[top] >> 24 | high << 8, high >> 56 | low << 8, low >> 56), zeros


def _slots(values):
    """The text of format(v, ".17g") for each non-negative float v in values
    and its ",", as a (len(values), 3) uint64 array of slots.  The longest
    such text, "2.2250738585072014e-308", is 23 bytes."""
    x = np.asarray(values, dtype=float).ravel()
    d, k, ok = _rounded(x)
    w, zeros = _digits(d)
    row = k + 5
    shift = _SHIFT[row]
    back = 64 - shift
    fraction = 16 - k - zeros
    length = np.maximum(k + 1, 1) + (fraction > 0) * (fraction + 1)
    slots = np.empty((len(x), 3), dtype=np.uint64)
    carry = 0  # the bytes that the previous word's shift pushed out
    for i in range(3):
        kept = w[i] & _LOW[i][row]
        moved = w[i] ^ kept
        text = kept | _INSERT[i][row] | moved << shift | carry
        carry = moved >> back
        slots[:, i] = text & _KEEP[i][length] | _SEP[i][length]
    rest = np.flatnonzero(~ok)
    if rest.size:
        slots[rest] = _words([b"%.17g," % v for v in x[rest].tolist()])
    return slots


def write_csv(grid, cols, pick, stream) -> None:
    """Write the map's CSV rows, one stream.write per a0 value, BLOCK_CELLS
    cells or one a0 value at a time.

    cols are the distinct nu columns, and pick names the one that each of
    nu1, nu2, nu5 and nu6 repeats.  b is formatted once for the map, and each
    block's a0 and nu values by one _slots call; every cell's eight slots are
    gathered by one take, and their nonzero bytes are the block's text."""
    points, k = len(grid.b), len(cols)
    rows = max(1, BLOCK_CELLS // points)
    fixed = np.concatenate((_slots(grid.b), _DETECTED))
    for r0 in range(0, points, rows):
        r1 = min(r0 + rows, points)
        n = r1 - r0
        nu = np.stack([c[r0:r1] for c in cols], axis=1)  # [i, c, j]
        slots = np.concatenate((fixed, _slots(np.concatenate((grid.a0[r0:r1], nu.ravel())))))
        # The row of slots of each cell's a0, b, nu1, nu2, nu5, nu6, min_nu
        # and detected.
        index = np.empty((n, points, 8), dtype=np.intp)
        index[:, :, 0] = np.arange(points + 2, points + 2 + n)[:, None]
        index[:, :, 1] = np.arange(points)
        cell = np.arange(points + 2 + n, len(slots), k * points)[:, None] + np.arange(points)
        for f, c in enumerate(pick):
            index[:, :, 2 + f] = cell + c * points
        index[:, :, 6] = cell + nu.argmin(axis=1) * points
        index[:, :, 7] = points + grid.detected[r0:r1]
        text = slots.take(index.ravel(), axis=0).astype("<u8", copy=False).view(np.uint8)
        text = text[text != 0]
        ends = (np.flatnonzero(text == 10)[points - 1::points] + 1).tolist()
        text = text.tobytes().decode("ascii")
        for start, end in zip([0, *ends], ends):
            stream.write(text[start:end])
