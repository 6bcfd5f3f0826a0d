"""The detection map's text, CSV or JSON: write_map, one block loop for both
and one stream.write per block.

Each piece of a row's text is a slot, three uint64 words whose little-endian
bytes are the text and zero padding: a float's text and its ",", or a
constant (a JSON key, the end of a row).  Each distinct float is formatted
once: each b once per map, each a0 once per row, and of the nu columns only
nu1 and nu2 where nu5 and nu6 repeat them bit for bit (the x and z axes
coincide); min_nu is one of them, found by argmin, and takes its slot.

JSON floats are float.__repr__, as json.dumps writes them, in
json.dumps(rows, indent=2) layout; a positive float's repr has at most 23
bytes.  CSV floats are format(v, ".17g"), so every value round trips.  It
rounds v correctly to 17 significant digits, ties to even, and writes
d * 10^(k - 16), d a 17-digit integer, as a plain decimal when
-4 <= k <= 16, trailing zeros dropped.  _slots makes those bytes for a block
of values at once, for each v in [1e-4, 1e16):

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
one that rounds up to 10^17 take Python's "%.17g".
"""

from __future__ import annotations

import numpy as np

# Grid cells per block, about 1 kB each (1.3 kB in JSON) at a block's peak.
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
    if max(map(len, rows), default=0) > 24:
        raise ValueError("a slot holds at most 24 bytes")
    return np.array(rows, dtype="S24").view("<u8").astype(np.uint64).reshape(-1, 3)


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


def _reprs(values):
    """float.__repr__ of each float in values, and its ",", as slots."""
    v = np.ravel(values).tolist()
    return _words(("%r,\n" * len(v) % tuple(v)).encode().split(b"\n")[:-1])


_HEADER = ("a0", "b", "nu1", "nu2", "nu5", "nu6", "min_nu", "detected")
# Per format: the text before the first row, the slots of a block of floats,
# and the constant slots: the keys, one before each field (none in CSV), then
# detected's, 0 and 1, that end a row, and the two that end the last row.
_FORMATS = {
    "csv": (",".join(_HEADER) + "\n", _slots, _words([b"0\n", b"1\n"] * 2)),
    "json": ("[\n", _reprs, _words([b'  {\n    "a0": ']
                                   + [b'\n    "%s": ' % key.encode() for key in _HEADER[1:]]
                                   + [b"0\n  },\n", b"1\n  },\n", b"0\n  }\n]\n", b"1\n  }\n]\n"])),
}


def write_map(grid, fmt: str, stream) -> None:
    """Write detection_map's grid as fmt, "csv" or "json": the header, then
    one stream.write per block, rows a0 outer and b inner.  A block is the
    whole a0 values that fit in BLOCK_CELLS cells, or one, so it ends at a
    row end and is all that is held at a time: its a0 and nu are formatted
    by one call, its cells' slots gathered by one take, and their nonzero
    bytes are its text.  Any other fmt is a ValueError."""
    if fmt not in _FORMATS:
        raise ValueError(f"map format must be csv or json, got {fmt!r}")
    head, floats, const = _FORMATS[fmt]
    keys = len(const) - 4  # the keys come before the four row ends
    points = len(grid.b)
    same = np.array_equal(grid.nu1, grid.nu5) and np.array_equal(grid.nu2, grid.nu6)
    pick = (0, 1, 0, 1) if same else (0, 1, 2, 3)  # the column that nu1, nu2, nu5, nu6 take
    cols = (grid.nu1, grid.nu2, grid.nu5, grid.nu6)[:max(pick) + 1]
    rows = max(1, BLOCK_CELLS // points)
    # The keys, the row ends and b, then from f0 each block's a0 and nu.
    fixed = np.concatenate((const, floats(grid.b)))
    f0 = len(fixed)
    stream.write(head)
    for r0 in range(0, points, rows):
        r1 = min(r0 + rows, points)
        n = r1 - r0
        nu = np.stack([c[r0:r1] for c in cols], axis=1)  # [i, c, j]
        slots = np.concatenate((fixed, floats(np.concatenate((grid.a0[r0:r1], nu.ravel())))))
        # Each cell's slots: a0, b, nu1, nu2, nu5, nu6, min_nu and detected,
        # each after its key where there are keys.
        index = np.empty((n, points, len(_HEADER) + keys), dtype=np.intp)
        index[:, :, :2 * keys:2] = np.arange(keys)
        field = index[:, :, 1::2] if keys else index
        field[:, :, 0] = np.arange(f0, f0 + n)[:, None]
        field[:, :, 1] = np.arange(f0 - points, f0)
        cell = np.arange(f0 + n, len(slots), len(cols) * points)[:, None] + np.arange(points)
        for f, c in enumerate(pick):
            field[:, :, 2 + f] = cell + c * points
        field[:, :, 6] = cell + nu.argmin(axis=1) * points
        field[:, :, 7] = keys + grid.detected[r0:r1]
        if r1 == points:
            field[-1, -1, 7] += 2  # the map's last row
        text = slots.take(index.ravel(), axis=0).astype("<u8", copy=False).view(np.uint8)
        stream.write(text[text != 0].tobytes().decode("ascii"))
