"""Exact numpy float-to-text kernels shared by the OBJ and body writers.

Two layouts, each byte for byte what Python writes:

- ``'%.17g' % x`` (patch.obj's ``v`` and ``vn`` lines), for 1e-6 < |x| < 1e17;
- ``repr(x)`` (body files, as json writes a float): the shortest digits that
  read back to x, positional, with ``.0`` on integral values, for
  1e-4 <= |x| < 1e16 when x is not a power of two.

Both start from one digit engine.  The decimal exponent X of x lies in
-6..16, so |x| * 10**(16 - X) = P is an exact product with an exact power of
ten, held as hi + lo by Dekker's split product, and its 17-digit rounding D17
is an int64.  The repr digits are the multiple of the largest power 10**j
whose multiple nearest to P lies strictly inside P's rounding interval
(P - u, P + u), u being half an ulp of x times 10**(16 - X); a shorter
string would not read back to x, and among the shortest the nearest is
Python's.  Every other value goes through Python's own ``%.17g`` or
``repr``: outside the windows (zeros, subnormals, tiny or huge magnitudes,
non-finite), power-of-two mantissas (their interval is lopsided), and, for
repr, any value whose distance to the interval's edge, whose tie between two
candidates or whose 17-digit tie (P - D17 = +-1/2) lies within _BAND of
exact.

Each number is laid into a slot of a byte canvas, and a per-layout mask
table picks the slot's columns that the text keeps.  Everything is built on
first use and works on chunks of CHUNK_ROWS rows, so buffers stay small.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_INT = np.array([10**k for k in range(17)])
_DEKKER = 134217729.0  # 2**27 + 1
CHUNK_ROWS = 4096
# One number's columns on the line canvas: its leading space, a sign, '0.'
# and three leading zeros, the 17 digits each followed by a possible point,
# then 'e-0' and the exponent digit.  A fallback string (at most 24
# characters) overwrites the columns after the space.
_SLOT = b" -0.000" + b"0." * 17 + b"e-00"
_FALLBACK_KEY = 23 * 17 * 2
_FALLBACK_WIDTH = 24
# Distances in units of P's last digit within which the shortest-digit
# search leaves a value to repr.  The search's only inexact step is adding
# P - D17 to an integer below 10**17, which errs by far less.
_BAND = 1e-9
_MANTISSA = np.uint64(2**52 - 1)


@functools.lru_cache(maxsize=None)
def format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per 4-digit group: its digits each followed by a point, as one 8-byte
    word, and its trailing-zero count; and the slot masks of every key, for
    '%.17g' (index 0) and repr (index 1).

    The words are built byte by byte and only ever moved whole, so they hold
    the same bytes under either byte order.  A key is ((X + 6) * 17 + digits
    kept - 1) * 2 + sign for the kernel's numbers and _FALLBACK_KEY + length
    for the fallback's strings.  The layouts differ only for X >= 0, where
    '%.17g' pads the digits to X + 1 and repr to X + 2, so that an integral
    value ends in '.0'.
    """
    g = np.arange(10000)
    pairs = np.full((10000, 8), ord("."), dtype=np.uint8)
    pairs[:, ::2] = 48 + np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    zeros = (g % 10 == 0).astype(np.int64) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)

    x = np.arange(-6, 17)[:, None, None]
    nd = np.arange(1, 18)[None, :, None]
    fixed = x >= -4
    j = np.arange(17)
    fallback = np.arange(len(_SLOT)) <= np.arange(_FALLBACK_WIDTH + 1)[:, None]
    layouts = []
    for pad in (1, 2):
        m = np.zeros((23, 17, 2, len(_SLOT)), dtype=bool)
        m[..., 0] = True
        m[..., 1] = np.arange(2) == 1
        m[..., 2] = m[..., 3] = fixed & (x < 0)
        for i in range(3):
            m[..., 4 + i] = fixed & (i < -x - 1)
        n_digits = np.where(fixed & (x >= 0), np.maximum(nd, x + pad), nd)
        m[..., 7:41:2] = j < n_digits[..., None]
        point_at = np.where(fixed, x, 0)
        has_point = np.where(fixed, (x >= 0) & (n_digits > x + 1), nd > 1)
        m[..., 8:42:2] = (j == point_at[..., None]) & has_point[..., None]
        m[..., 41:] = ~fixed[..., None]
        layouts.append(np.concatenate([m.reshape(_FALLBACK_KEY, -1), fallback]))
    return pairs.view(np.uint64).ravel(), zeros, np.stack(layouts)


def two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * b as hi + lo exactly, by Dekker's split product."""
    hi = a * b
    t = _DEKKER * a
    ah = t - (t - a)
    t = _DEKKER * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def shortest_digits(d: np.ndarray, lo: np.ndarray, half_ulp: np.ndarray,
                    idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest round-trip digits of P = d + (lo - rint(lo)) as a 17-digit
    int64 with trailing zeros, and where the search is too close to call;
    only the entries idx are searched.

    d is P rounded to 17 digits and half_ulp the half-width u of P's rounding
    interval: above 0.55, as an ulp is more than 2**-53 of the value and
    P >= 1e16, so d itself lies inside; and below 11.2, as P < 1e17.  The j
    whose multiple of 10**j nearest to P lies inside (P - u, P + u) are
    closed downward, so j walks upward over the numbers that still hit.
    Distances are taken from the integers q = d mod 10**j and 10**j - q, so
    the one near P is exact up to adding P - d.
    """
    r = lo - np.rint(lo)
    unsure = np.abs(np.abs(r) - 0.5) < _BAND
    level = np.zeros(len(d), dtype=np.int64)
    dd, rr, uu = d[idx], r[idx], half_ulp[idx]
    for j in range(1, 17):
        step = 10**j
        q = dd % step
        t = q + rr  # P minus the multiple of 10**j at or below d
        dist = np.minimum(np.abs(t), (step - q) - rr)
        hit = dist < uu
        near = np.abs(dist - uu) < _BAND
        if j == 1:
            # Two candidates tie at distance step / 2, which only u > 5 reaches.
            near |= hit & (np.abs(t - 5.0) < _BAND)
        unsure[idx[near]] = True
        idx, dd, rr, uu = idx[hit], dd[hit], rr[hit], uu[hit]
        if not len(idx):
            break
        level[idx] = j
    # The multiple of 10**level nearest to P.
    step = _POW10_INT[level]
    q = d % step
    return d - q + np.where(q + r > step / 2, step, 0), unsure


def format_into(slots: np.ndarray, x: np.ndarray, shortest: bool) -> np.ndarray:
    """Write the text of the flat x into slots, one row of _SLOT columns per
    number, and return each number's mask key: repr's text if shortest, else
    '%.17g''s."""
    pairs, zeros, _ = format_tables()
    a = np.abs(x)
    if shortest:
        inside = (a >= 1e-4) & (a < 1e16) & ((a.view(np.uint64) & _MANTISSA) != 0)
    else:
        inside = (a > 1e-6) & (a < 1e17)
    # Values outside the window are formatted as 1.0 and overwritten below,
    # so log10 and the int casts never see a zero, an inf or a nan.
    a = np.where(inside, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    np.clip(e, -6, 16, out=e)
    hi, lo = two_product(a, _POW10[16 - e])
    # log10 may miss X by one next to a power of ten: compare hi + lo with
    # the exact doubles 1e16 and 1e17 and redo the product once.
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    fix = np.flatnonzero(below | above)
    e[fix] += np.where(above[fix], 1, -1)
    hi[fix], lo[fix] = two_product(a[fix], _POW10[16 - e[fix]])
    # hi >= 1e16 is an even integer, so rounding lo half-even rounds hi + lo.
    # No double of either window rounds up to 10**17, at 17 digits or at its
    # shortest, so X takes no carry.
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    if shortest:
        # Half an ulp of a times 10**(16 - X): a power of two times an exact
        # double, so exact.
        d, unsure = shortest_digits(d, lo, np.spacing(a) * 0.5 * _POW10[16 - e],
                                    np.flatnonzero(inside))
        inside &= ~unsure

    lead, rest = np.divmod(d, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    groups = np.empty((len(x), 4), dtype=np.int64)
    np.divmod(upper, 10**4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(lower, 10**4, out=(groups[:, 2], groups[:, 3]))
    slots[:, 7] = 48 + lead
    slots[:, 9:41].view(np.uint64)[:] = pairs.take(groups)
    z = zeros.take(groups)
    trailing = z[:, 3] + (z[:, 3] == 4) * (z[:, 2] + (z[:, 2] == 4) * (
        z[:, 1] + (z[:, 1] == 4) * z[:, 0]))
    slots[:, -1] = 48 - e
    key = ((e + 6) * 17 + 16 - trailing) * 2 + (x < 0)

    outside = np.flatnonzero(~inside)
    if len(outside):
        values = x[outside].tolist()
        text = [repr(v) for v in values] if shortest else ["%.17g" % v for v in values]
        key[outside] = _FALLBACK_KEY + np.array([len(t) for t in text])
        slots[outside, 1:1 + _FALLBACK_WIDTH] = np.frombuffer(
            "".join(t.ljust(_FALLBACK_WIDTH) for t in text).encode("ascii"),
            dtype=np.uint8).reshape(len(outside), _FALLBACK_WIDTH)
    return key


def float_lines(rows: np.ndarray, prefix: bytes, suffix: bytes = b"\n",
                shortest: bool = False) -> Iterator[np.ndarray]:
    """Per row of rows: prefix, then ' ' and the text of each entry, then
    suffix; yielded as uint8 arrays of CHUNK_ROWS rows each.  The text is
    repr's if shortest, else '%.17g''s.

    Each number gets a canvas row of the line prefix, its slot and the
    suffix; the prefix is kept on a line's first number only and the suffix
    on its last, so one boolean mask per chunk compacts the canvas into the
    lines.  The mask is applied as flatnonzero and take, which ran 2.8 times
    faster than boolean indexing on these short irregular runs.
    """
    n_cols = rows.shape[1]
    start, end = len(prefix), len(prefix) + len(_SLOT)
    template = np.frombuffer(prefix + _SLOT + suffix, dtype=np.uint8)
    slot_masks = format_tables()[2][int(shortest)]
    # The mask of every (place in the line, key), places outermost.
    place = np.arange(n_cols)[:, None, None]
    masks = np.empty((n_cols, len(slot_masks), len(template)), dtype=bool)
    masks[:, :, start:end] = slot_masks
    masks[:, :, :start] = place == 0
    masks[:, :, end:] = place == n_cols - 1
    masks = masks.reshape(-1, len(template))
    offsets = np.arange(n_cols) * len(slot_masks)
    for first in range(0, len(rows), CHUNK_ROWS):
        chunk = rows[first:first + CHUNK_ROWS]
        canvas = np.empty((chunk.size, len(template)), dtype=np.uint8)
        canvas[:] = template
        key = format_into(canvas[:, start:end], chunk.ravel(), shortest)
        key = key.reshape(-1, n_cols) + offsets
        yield canvas.ravel().take(np.flatnonzero(masks[key]))
