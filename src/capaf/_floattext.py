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

read_floats is the writer's inverse for body files: it reads a json list in
the layout save_body writes, each token positional, and returns the floats
bit for bit as float(token) reads them.  A token of at most 17 significant
digits is the integer D of its digits over 10**k, k its fraction digits.
D < 2**53 is a double, and so is 10**k for k <= 22, so one IEEE division
rounds D / 10**k correctly (Clinger's fast path).  A larger D is first
rounded to a double, and the quotient q of that is corrected by the exact
remainder D - q * 10**k, from Dekker's product; a token whose quotient lies
within _BAND ulps of a tie between two doubles, or next to a power of two,
goes to Python's float().  Tokens are found with flatnonzero and their
digits read eight at a time from byte windows (SWAR, after Lemire), on
chunks of READ_BYTES bytes.
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

READ_BYTES = 1 << 17
# Bytes of slack before a chunk's copy: a byte window ends inside the chunk
# but may start up to 24 bytes before it.
_READ_PAD = 24
_SEPARATOR = b",\n  "
_U64 = np.uint64
_ASCII_ZEROS = _U64(0x3030303030303030)
# SWAR constants: eight digit bytes, the first the most significant, to their
# integer (Lemire 2021).
_PAIR = _U64(2561)
_LANES = _U64(0x000000FF000000FF)
_HUNDREDS = _U64(100 + (1000000 << 32))
_ONES = _U64(1 + (10000 << 32))
_E8 = _U64(10**8)
# _KEEP[24 + n]: the mask of a little-endian word's last n bytes, n clipped to
# 0..8.
_KEEP = np.array([2**64 - 2 ** (64 - 8 * min(max(n, 0), 8)) for n in range(-24, 25)],
                 dtype=np.uint64)
_SEPARATOR_TAIL = np.arange(1, 4)[:, None]
_SEPARATOR_BYTES = np.frombuffer(_SEPARATOR[1:], dtype=np.uint8)[:, None]
# 10**k for the integer part's place; past 10**16 only a zero integer part
# stays within 17 significant digits.
_POW10_U64 = np.array([10**k if k < 17 else 0 for k in range(23)], dtype=np.uint64)


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


def read_floats(block: bytes) -> np.ndarray | None:
    """The floats of a json list's inside as float_lines(..., shortest=True)
    writes it in a body file, or None if block is not in that layout.

    The layout is '\\n  ' before the first token, ',\\n  ' between tokens and
    '\\n ' after the last; every token is -?(0|[1-9]\\d*)\\.\\d+ with at most 17
    significant digits and at most 22 fraction digits.  Exponent or integer
    tokens, NaN, strings, bools and nested lists are not in it.  A chunk of at
    most READ_BYTES bytes, cut at a separator, is copied behind _READ_PAD bytes
    of slack, so that every window lies in the copy.
    """
    if len(block) < 8 or block[:3] != _SEPARATOR[1:] or block[-2:] != b"\n ":
        return None
    buf = np.empty(_READ_PAD + min(len(block), READ_BYTES), dtype=np.uint8)
    chunks, start, stop = [], 3, len(block) - 2
    while True:
        cut = (stop if stop - start <= READ_BYTES
               else block.rfind(b",", start, start + READ_BYTES))
        size = cut - start
        if size <= 0:
            return None
        buf[_READ_PAD:_READ_PAD + size] = np.frombuffer(block, np.uint8, size, start)
        values = _read_chunk(buf, size, block, start)
        if values is None:
            return None
        chunks.append(values)
        if cut == stop:
            return np.concatenate(chunks)
        if block[cut:cut + 4] != _SEPARATOR:
            return None
        start = cut + 4


def _read_chunk(buf: np.ndarray, size: int, block: bytes, offset: int) -> np.ndarray | None:
    """The floats of buf[_READ_PAD:_READ_PAD + size], a copy of block[offset:]
    that holds whole tokens, or None if it breaks the layout."""
    text = buf[_READ_PAD:_READ_PAD + size]
    if text.max() > ord("9"):
        return None
    # The points and commas (the only bytes that | 2 maps to '.') alternate;
    # every other byte below '0' must then be a sign or a separator's tail.
    marks = np.flatnonzero((text | 2) == ord("."))
    kind = text.take(marks)
    if (len(marks) % 2 == 0 or kind[::2].min() != ord(".")
            or (len(marks) > 1 and kind[1::2].max() != ord(","))):
        return None
    marks += _READ_PAD
    points, commas = marks[::2], marks[1::2]
    n = len(points)
    starts = np.empty(n, dtype=np.int64)
    starts[0] = _READ_PAD
    np.add(commas, 4, out=starts[1:])
    negative = buf.take(starts) == ord("-")
    if (np.count_nonzero(text < ord("0"))
            != len(marks) + 3 * len(commas) + np.count_nonzero(negative)
            or (buf.take(commas + _SEPARATOR_TAIL) != _SEPARATOR_BYTES).any()):
        return None
    ends = np.empty(n, dtype=np.int64)
    ends[:-1] = commas
    ends[-1] = _READ_PAD + size
    int_digits = points - starts - negative
    frac_digits = ends - points
    frac_digits -= 1
    lead = buf.take(starts + negative)
    most_int, most_frac = int(int_digits.max()), int(frac_digits.max())
    if (int_digits.min() < 1 or frac_digits.min() < 1 or most_int > 16 or most_frac > 22
            or ((int_digits > 1) & (lead == ord("0"))).any()):
        return None

    # Word j of a part ends 8 * j bytes before the part does and keeps the
    # part's digits in it: the fraction's words first, then the integer's,
    # unless every integer part is one digit, read from its byte.
    n_frac, n_int = (most_frac + 7) // 8, (most_int + 7) // 8 if most_int > 1 else 0
    at = np.empty((n_frac + n_int, n), dtype=np.int64)
    keep = np.empty((n_frac + n_int, n), dtype=np.int64)
    for j in range(n_frac):
        np.subtract(ends, 8 * j + 8, out=at[j])
        np.add(frac_digits, 24 - 8 * j, out=keep[j])
    for j in range(n_int):
        np.subtract(points, 8 * j + 8, out=at[n_frac + j])
        np.add(int_digits, 24 - 8 * j, out=keep[n_frac + j])
    windows = np.ndarray((len(buf) - 7,), dtype="V8", buffer=buf, strides=(1,))
    v = windows[at].view("<u8")
    v ^= _ASCII_ZEROS
    v &= _KEEP.take(keep)
    v *= _PAIR
    v >>= _U64(8)
    odd = v >> _U64(16)
    odd &= _LANES
    odd *= _ONES
    v &= _LANES
    v *= _HUNDREDS
    v += odd
    v >>= _U64(32)

    # D, from 8-digit groups; more than 17 significant digits would overflow.
    digits = v[n_frac - 1]
    if n_frac == 3 and digits.max() >= 10:
        return None
    for j in range(n_frac - 2, -1, -1):
        digits *= _E8
        digits += v[j]
    whole = v[-1] if n_int else (lead ^ ord("0")).astype(np.uint64)
    if n_int == 2:
        whole *= _E8
        whole += v[n_frac]
    if ((int_digits + frac_digits > 17) & (whole > 0)).any():
        return None
    whole *= _POW10_U64.take(frac_digits)
    digits += whole

    scale = _POW10.take(frac_digits)
    x = digits.astype(np.float64)
    q = x / scale
    big = np.flatnonzero(digits >= 2**53)
    unsure = []
    if len(big):
        # x = fl(D) is an integer within 8 of D, and q * 10**k = hi + lo
        # exactly; hi lies within a factor 2 of x, so D - q * 10**k is
        # (x - hi) + (D - x) - lo with one rounding, in the last step.
        d, x, q_big, s = digits[big], x[big], q[big], scale[big]
        hi, lo = two_product(q_big, s)
        rem = ((x - hi) + (d - x.astype(np.uint64)).view(np.int64)) - lo
        ulp = np.spacing(q_big)
        t = rem / (ulp * s)  # D / 10**k - q, in ulps of q
        step = np.rint(t)
        fixed = q_big + step * ulp
        # fixed is the nearest double if it lies within half an ulp, clear of
        # the tie by _BAND, and neither it nor q is a power of two, where the
        # ulp below is half the ulp above.
        unsure = big[(np.abs(np.abs(t - step) - 0.5) < _BAND) | (np.abs(step) > 1)
                     | ((q_big.view(np.uint64) & _MANTISSA) == 0)
                     | ((fixed.view(np.uint64) & _MANTISSA) == 0)].tolist()
        q[big] = fixed
    np.negative(q, out=q, where=negative)
    for i in unsure:
        q[i] = float(block[starts[i] - _READ_PAD + offset:ends[i] - _READ_PAD + offset])
    return q
