"""repr of a whole float64 array at once, byte for byte.

Digits come from Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020) on uint64 arrays; the layout is Python's 'r' format.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_K_MIN = -324
_LOW32, _LOW63 = _U(2**32 - 1), _U(2**63 - 1)


def _multipliers():
    """Per k in [-324, 292]: g = floor(10^-k 2^-r) + 1 in [2^125, 2^126), as 63-bit halves."""
    powers = [1]
    for _ in range(-_K_MIN):
        powers.append(powers[-1] * 10)
    g = [(p << 126 >> p.bit_length()) + 1 for p in reversed(powers)]
    g += [(1 << p.bit_length() + 125) // p + 1 for p in powers[1:293]]
    return np.array([x >> 63 for x in g], _U), np.array([x & (2**63 - 1) for x in g], _U)


_G1, _G0 = _multipliers()
_POW10 = 10 ** np.arange(18, dtype=_U)
_PAIRS = np.frombuffer("".join(map("{:02}".format, range(100))).encode(), np.uint16)
# Entry x < 10**4 holds the four ASCII digits of x, in memory order.
_DIGITS4 = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), -1).view(np.uint32).ravel()


def _mulhi(a, bh, bl):
    """The high word of a*b for a < 2**63 and b = bh 2**32 + bl < 2**60."""
    ah, al = a >> _U(32), a & _LOW32
    return ((al * bl >> _U(32)) + al * bh + ah * bl >> _U(32)) + ah * bh


def _rop(g1, g0, cp):
    """g cp / 2**127 rounded to odd, for g = g1 2**63 + g0 (Schubfach's rop)."""
    ch, cl = cp >> _U(32), cp & _LOW32
    z = (g1 * cp >> _U(1)) + _mulhi(g0, ch, cl)
    return _mulhi(g1, ch, cl) + (z >> _U(63)) | ((z & _LOW63) + _LOW63 >> _U(63))


def _shortest(bits):
    """(d, k): d 10^k is the shortest decimal that rounds to each float, given as its bits
    with the sign cleared."""
    c = bits & _U(2**52 - 1)
    e = (bits >> _U(52)).view(np.int64)
    irregular = (c == 0) & (e > 1)  # c 2^q opens a binade: the gap below is half the gap above
    c |= (e > 0).astype(_U) << _U(52)
    q = np.maximum(e, 1) - 1075  # the float is c 2^q
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2^q)), or of 3/4 2^q
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint8)  # + floor(log2(10^-k)): 2..5
    g1, g0 = _G1.take(k - _K_MIN), _G0.take(k - _K_MIN)
    odd = (c & _U(1)).astype(bool)  # ties to even: an odd c excludes the interval's ends
    c <<= _U(2)  # vb, vbl, vbr: 4 (c, its lower and upper rounding bound) 2^q / 10^k, to odd
    vb = _rop(g1, g0, c << h)
    s = vb >> _U(2)
    tie_up = (vb & _U(3)) + (s & _U(1)) > _U(2)  # s + 1 is nearer, or as near and even
    vbl = _rop(g1, g0, c - _U(2) + irregular << h) + odd
    vbr = _rop(g1, g0, c + _U(2) << h) - odd
    s10 = s // _U(10)
    # One digit shorter when exactly one of 10 s10 and 10 s10 + 10 lies in the interval
    # (tried from s >= 10, not Java's 100: repr keeps one digit), else s or s + 1, the
    # one inside or the nearer.
    upin, wpin = vbl <= s10 * _U(40), s10 * _U(40) + _U(40) <= vbr
    uin, win = vbl <= s << _U(2), s + _U(1) << _U(2) <= vbr
    short = (s >= _U(10)) & (upin != wpin)
    return np.where(short, s10 + wpin, s + np.where(uin != win, win, tie_up)), k + short


def repr_blocks(values: np.ndarray, width: int):
    """Yield the repr of each float64, ',' between and '\\n' after each width, by row blocks."""
    step = width * 512  # rows per block, which bounds the temporaries
    for lo in range(0, values.size, step):
        yield _render(values[lo:lo + step], width)


def _render(values, width):
    regular = np.isfinite(values) & (values != 0.0)
    d, point = _shortest(values.view(_U) & _LOW63)
    d *= regular  # 0.0, nan and inf are laid out as the digit 0 at 10^0
    point *= regular
    n = np.maximum(np.searchsorted(_POW10, d, side="right"), 1)
    point += n  # value = 0.DIGITS 10^point
    d *= _POW10.take(17 - n)  # the digits, left-aligned to 17 places
    chunks = [_DIGITS4.take(d // _U(10**p) % _U(10**4)) for p in (16, 12, 8, 4, 0)]
    digits = np.stack(chunks, axis=1).view(np.uint8)[:, 3:]
    n = np.minimum(17 - np.argmax(digits[:, ::-1] != 48, axis=1), n)  # without trailing zeros
    expo = (point < -3) | (point > 16)
    neg = np.signbit(values) & ~np.isnan(values)
    lead = np.maximum(1 - point, 0) * ~expo  # the zeros of 0.000ddd
    length = neg + lead + np.maximum(n, point) + 1 + (point >= n)  # characters, fixed form
    exp_at = np.flatnonzero(expo)  # d[.ddd]e-XX, with exponent x = point - 1
    x, e_n = point[exp_at] - 1, n[exp_at]
    wide = np.abs(x) > 99
    length[exp_at] = neg[exp_at] + e_n + (e_n > 1) + 4 + wide
    sep = np.cumsum(length + 1) - 1
    base = sep - length + neg + lead  # where each value's first digit goes
    dot = np.where(expo, 1, point)  # digit j goes after the point when j >= dot
    buf = np.full(sep[-1] + 1, ord("0"), np.uint8)
    for j in range(17):  # a value's digits past its last land on its separator
        buf[np.minimum(base + j + (dot <= j), sep)] = digits[:, j]
    buf[base + dot] = ord(".")
    buf[(sep - length)[neg]] = ord("-")
    at = base[exp_at] + e_n + (e_n > 1)
    buf[at] = ord("e")
    buf[at + 1] = np.where(x < 0, ord("-"), ord("+"))
    x = np.abs(x)
    buf[at[wide] + 2] = 48 + x[wide] // 100
    buf[at + wide + 2] = 48 + x // 10 % 10
    buf[at + wide + 3] = 48 + x % 10
    buf[sep] = ord(",")
    buf[sep[width - 1::width]] = ord("\n")
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        text = repr(float(values[i])).encode()
        buf[sep[i] - len(text):sep[i]] = np.frombuffer(text, np.uint8)
    return str(buf, "ascii")
