"""The repr layout of the float kernel (body files) against Python's repr, and
its reader against Python's float."""

import math
from fractions import Fraction

import numpy as np
import pytest

from capaf import _floattext

from helpers import exact_ties, floats_by_float, reprs_by_kernel, reprs_by_repr, values_block


def with_neighbours(values, steps=2):
    """values, each with its nextafter neighbours up to steps away, both signs."""
    out = [np.asarray(values, dtype=float)]
    for direction in (0.0, np.inf):
        x = out[0]
        for _ in range(steps):
            x = np.nextafter(x, direction)
            out.append(x)
    out = np.concatenate(out)
    return np.concatenate([out, -out])


def short_decimals():
    """Doubles whose repr keeps 1 to 17 digits, at every exponent of the window."""
    rng = np.random.default_rng(7)
    values = []
    for n in range(1, 18):
        for x in range(-5, 17):
            for _ in range(4):
                digits = str(rng.integers(10 ** (n - 1), 10**n))
                values.append(float(f"{digits[0]}.{digits[1:]}e{x}"))
    return np.array(values)


def repr_digits(x: float) -> int:
    """The number of significant digits repr writes for x."""
    return len(repr(abs(x)).split("e")[0].replace(".", "").strip("0"))


@pytest.mark.parametrize("values", [
    with_neighbours(2.0 ** np.arange(-16, 56)),
    exact_ties(),
    with_neighbours([1e-4, 1e16, 9999999999999998.0, 1.0000000000000002e-4]),
    [2.0, 1e15, 3.0, 10.0, 100.0, 12345.0, 999999999999999.0, 9999999999999998.0,
     4503599627370497.0, 1234567890123456.8, 1e14 + 0.5, -7.0],
    short_decimals(),
    [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.5e-301, 1e17, 0.1, 0.3, 1.0 / 3.0],
], ids=["powers-of-two", "ties", "window-edges", "integral", "lengths", "specials"])
def test_the_repr_kernel_writes_what_repr_writes(values):
    assert reprs_by_kernel(values) == reprs_by_repr(values)


def test_the_sweeps_reach_the_layouts_they_are_for():
    assert reprs_by_kernel([2.0, 1e15]) == b" 2.0\n 1000000000000000.0\n"
    assert {repr_digits(x) for x in short_decimals().tolist()} == set(range(1, 18))
    # 1e-4 is the first positional value and 1e16 the first past the window.
    assert repr(1e-4) == "0.0001" and "e" in repr(np.nextafter(1e-4, 0.0).item())
    assert repr(1e16) == "1e+16" and repr(9999999999999998.0) == "9999999999999998.0"


def test_no_window_double_has_shortest_digits_that_carry_to_the_next_decade():
    # Why the kernel's shortest digits take no carry: each power of ten
    # 10**m at the top of a decade of the window is a double or lies below
    # its nearest double, and it lies beyond the rounding interval of the
    # largest double below it.  Rounding intervals are disjoint and ordered,
    # so no double of the decade has a shortest decimal of 10**m.
    for m in range(-3, 17):
        power = Fraction(10) ** m
        nearest = float(power)
        assert Fraction(nearest) >= power, m
        below = math.nextafter(nearest, 0.0)
        assert Fraction(below) + Fraction(math.ulp(below)) / 2 < power, m


def test_the_repr_kernel_leaves_exactly_the_documented_values_to_repr(monkeypatch):
    # Zeros, subnormals, magnitudes outside [1e-4, 1e16) and powers of two
    # go to repr; the rest of these are the kernel's.
    fallback = [0.0, -0.0, 5e-324, 1e300, -1e16, math.nextafter(1e-4, 0.0), 0.5, -2.0,
                1024.0, 2.0**-13, 2.0**53]
    kernel = [0.1, 1.0 / 3.0, 12345.678, 1e15, 1e-4, -9999999999999998.0, 3.0,
              0.30000000000000004, math.nextafter(0.5, 1.0), math.nextafter(1024.0, 0.0)]
    seen = []

    def spy(x):
        seen.append(x)
        return repr(x)

    monkeypatch.setattr(_floattext, "repr", spy, raising=False)
    values = [x for pair in zip(fallback, kernel) for x in pair] + fallback[len(kernel):]
    assert reprs_by_kernel(values) == reprs_by_repr(values)
    assert [x.hex() for x in seen] == [x.hex() for x in fallback]


def digit_inputs(values):
    """shortest_digits' inputs for window doubles, from exact fractions: P
    rounded half-even to 17 digits, P minus that as lo, and u."""
    d, lo, half_ulp = [], [], []
    for x in values:
        exponent = math.floor(math.log10(x))
        p = Fraction(x) * Fraction(10) ** (16 - exponent)
        assert 10**16 <= p < 10**17
        d.append(round(p))
        lo.append(float(p - round(p)))
        half_ulp.append(float(Fraction(math.ulp(x)) / 2 * Fraction(10) ** (16 - exponent)))
    return np.array(d), np.array(lo), np.array(half_ulp)


class Recorded(np.ndarray):
    """An int64 array that records the length of each remainder taken of it."""

    lengths: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.remainder:
            Recorded.lengths.append(len(self))
        inputs = [x.view(np.ndarray) if isinstance(x, Recorded) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("values, lengths", [
    # 1/3 keeps 16 digits: one pass hits, the second misses, and the walk stops.
    ([1.0 / 3.0], [1, 1]),
    # 0.1 hits up to 10**16; each pass after 1/3 drops out sees it alone.
    ([1.0 / 3.0, 0.1], [2, 2] + [1] * 14),
])
def test_the_digit_walk_shrinks_to_the_numbers_that_still_hit(values, lengths):
    d, lo, half_ulp = digit_inputs(values)
    Recorded.lengths = []
    digits, unsure = _floattext.shortest_digits(d.view(Recorded), lo, half_ulp,
                                                np.arange(len(d)))
    # The last remainder rounds every number once, at its final level.
    assert Recorded.lengths == lengths + [len(values)]
    assert [int(x) for x in digits] == [int(repr(x).replace("0.", "").ljust(17, "0"))
                                        for x in values]
    assert not unsure.any()


@pytest.mark.parametrize("half_ulp, digits, unsure", [
    (2.5, 10**16 + 3, False),
    # 10**16 lies exactly on the edge: not inside, and too close to call.
    (3.0, 10**16 + 3, True),
    (3.0 + 1e-12, 10**16, True),
    (3.5, 10**16, False),
])
def test_a_candidate_must_lie_strictly_inside_the_interval(half_ulp, digits, unsure):
    # P = 10**16 + 3 exactly; its nearest multiple of 10**j is 10**16 for every j.
    got, flagged = _floattext.shortest_digits(np.array([10**16 + 3]), np.array([0.0]),
                                              np.array([half_ulp]), np.arange(1))
    assert (int(got[0]), bool(flagged[0])) == (digits, unsure)


def test_two_candidates_at_one_distance_are_left_to_repr():
    # P = 10**16 + 5: 10**16 and 10**16 + 10 are both 5 away; a 17-digit tie
    # P - D17 = 1/2 is too close to call as well.
    got, flagged = _floattext.shortest_digits(
        np.array([10**16 + 5, 10**16 + 2]), np.array([0.0, 0.5]),
        np.array([6.0, 1.0]), np.arange(2))
    assert flagged.tolist() == [True, True]


def positional(values):
    """The entries of values that repr writes without an exponent."""
    values = np.asarray(values, dtype=float)
    return values[((np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)) | (values == 0.0)]


READER_INPUTS = [
    with_neighbours(2.0 ** np.arange(-13, 54)),
    exact_ties(),
    with_neighbours([1e-4, 1.0000000000000002e-4, 9999999999999998.0, 1e15]),
    [2.0, 1e15, 3.0, 10.0, 12345.0, 999999999999999.0, 9999999999999998.0,
     4503599627370497.0, 1234567890123456.8, 1e14 + 0.5, -7.0, 0.0, -0.0],
    short_decimals(),
]
READER_IDS = ["powers-of-two", "ties", "window-edges", "integral", "lengths"]


@pytest.mark.parametrize("values", READER_INPUTS, ids=READER_IDS)
def test_the_reader_reads_what_float_reads_from_every_block_the_writer_writes(values):
    values = positional(values)
    block = values_block(values)
    got = _floattext.read_floats(block)
    assert got.tobytes() == floats_by_float(block).tobytes()
    assert got.tobytes() == values.tobytes()


def test_the_reader_sweeps_reach_its_paths():
    tokens = values_block(np.concatenate([positional(v) for v in READER_INPUTS])).split(b",")
    tokens = [t.strip() for t in tokens]
    digits = [t.lstrip(b"-").replace(b".", b"") for t in tokens]
    fraction = [len(t.split(b".")[1]) for t in tokens]
    mantissas = [int(d) for d in digits]
    assert any(t.startswith(b"-") for t in tokens)
    assert max(len(d.lstrip(b"0")) for d in digits) == 17
    assert max(len(t.lstrip(b"-").split(b".")[0]) for t in tokens) == 16
    # 17-digit mantissas above 2**53, where one division by 10**k would
    # round twice: the remainder's correction changes some of them.
    assert sum(m >= 2**53 for m in mantissas) > 1000
    assert any(float(m) / 10**k != float(t) for m, k, t in zip(mantissas, fraction, tokens))
    assert min(abs(float(t)) for t in tokens if float(t)) == 1e-4


@pytest.mark.parametrize("read_bytes", [32, 33, 64, 1000])
def test_the_reader_cuts_its_chunks_at_separators(monkeypatch, read_bytes):
    values = positional(short_decimals())
    block = values_block(values)
    monkeypatch.setattr(_floattext, "READ_BYTES", read_bytes)
    assert _floattext.read_floats(block).tobytes() == values.tobytes()


def test_the_reader_leaves_ties_and_powers_of_two_to_float(monkeypatch):
    # 2**53 + 1 lies half-way between two doubles, and 2**52 with a
    # 17-digit mantissa is a quotient at a power of two; the rest are the
    # kernel's, on either path.
    tokens = [b"9007199254740993.0", b"0.1", b"4503599627370496.0", b"-1.2345678901234567",
              b"0.0", b"12345.678"]
    seen = []

    def spy(token):
        seen.append(token)
        return float(token)

    monkeypatch.setattr(_floattext, "float", spy, raising=False)
    block = b"\n  " + b",\n  ".join(tokens) + b"\n "
    got = _floattext.read_floats(block)
    assert got.tolist() == [9007199254740992.0, 0.1, 4503599627370496.0, -1.2345678901234567,
                            0.0, 12345.678]
    assert seen == [tokens[0], tokens[2]]


@pytest.mark.parametrize("block", [
    b"\n  0.0\n ", b"\n  -0.0,\n  0.5\n ",
])
def test_the_reader_reads_positional_zeros(block):
    assert _floattext.read_floats(block).tobytes() == floats_by_float(block).tobytes()


@pytest.mark.parametrize("token", [
    b"1e-05", b"1e+16", b"5e-324", b"NaN", b"Infinity", b"1", b"+1.0", b"01.5", b".5", b"5.",
    b"-.5", b"--1.0", b"1.0.0", b"1.5-", b'"0.5"', b"true", b"[0.5]", b"",
    b"0.123456789012345678", b"12345678901234567.0", b"0.00000000000000000000001",
])
def test_the_reader_declines_a_token_out_of_its_grammar(token):
    assert _floattext.read_floats(b"\n  0.5,\n  " + token + b",\n  0.25\n ") is None


@pytest.mark.parametrize("block", [
    b"0.5, 0.25", b"\n    0.5,\n    0.25\n  ", b"\n  0.5,\n 0.25\n ", b"\n  0.5, \n  0.25\n ",
    b"\n  0.5\n", b"\n  0.5,\n  0.25,\n  \n ", b"\n  0.5\t\n ", b"\n  0.5,\r\n  0.25\n ", b"",
    # A separator of the right length whose bytes are out of place.
    b"\n  0.5,  \n0.25\n ", b"\n  0.5,\n +0.25\n ",
])
def test_the_reader_declines_another_layout(block):
    assert _floattext.read_floats(block) is None
