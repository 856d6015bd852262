"""repr of a whole float64 array at once, byte for byte, in blocks of 1,024 rows.

Digits come from Schubfach (R. Giulietti, 2020) on uint64 arrays and 32-bit limb tables, in
uint32 4-digit groups; the layout is Python's 'r' format, scattered from the last digit.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_K_MIN = -324
_LOW32, _LOW63 = _U(2**32 - 1), _U(2**63 - 1)


def _multipliers():
    """Per k in [-324, 292]: g = floor(10^-k 2^-r) + 1 in [2^125, 2^126) as rows of 32-bit
    limbs g1h, g1l, g0h, g0l, where g = g1 2^63 + g0 and gi = gih 2^32 + gil."""
    powers = [1]
    for _ in range(-_K_MIN):
        powers.append(powers[-1] * 10)
    g = [(p << 126 >> p.bit_length()) + 1 for p in reversed(powers)]
    g += [(1 << p.bit_length() + 125) // p + 1 for p in powers[1:293]]
    halves = [(x >> 63, x & 2**63 - 1) for x in g]
    return np.array([[x[i] >> s & 2**32 - 1 for x in halves] for i in (0, 1) for s in (32, 0)], _U)


_G = _multipliers()
_POW10 = 10 ** np.arange(18, dtype=_U)
_PAIRS = np.frombuffer("".join(map("{:02}".format, range(100))).encode(), np.uint16)
# Entry x < 10**4: the four ASCII digits of x in memory order; in _TZ4, their trailing zeros.
_DIGITS4 = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), -1).view(np.uint32).ravel()
_TZ4 = sum(np.arange(10**4) % 10**i == 0 for i in range(1, 5)).astype(np.uint8)


def _mulhi(ah, al, bh, bl):
    """The high word of a*b for a = ah 2**32 + al < 2**63 and b = bh 2**32 + bl < 2**60."""
    return ((al * bl >> _U(32)) + al * bh + ah * bl >> _U(32)) + ah * bh


def _rop(g1h, g1l, g0h, g0l, cp):
    """g cp / 2**127 rounded to odd, for g = g1 2**63 + g0 in limbs (Schubfach's rop)."""
    ch, cl = cp >> _U(32), cp & _LOW32
    z = ((g1h * cp << _U(32)) + g1l * cp >> _U(1)) + _mulhi(g0h, g0l, ch, cl)  # g1 cp mod 2**64
    return _mulhi(g1h, g1l, ch, cl) + (z >> _U(63)) | ((z & _LOW63) + _LOW63 >> _U(63))


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
    g = [row.take(k - _K_MIN) for row in _G]
    odd = (c & _U(1)).astype(bool)  # ties to even: an odd c excludes the interval's ends
    c <<= _U(2)  # vb, vbl, vbr: 4 (c, its lower and upper rounding bound) 2^q / 10^k, to odd
    vb = _rop(*g, c << h)
    s = vb >> _U(2)
    tie_up = (vb & _U(3)) + (s & _U(1)) > _U(2)  # s + 1 is nearer, or as near and even
    vbl = _rop(*g, c - _U(2) + irregular << h) + odd
    vbr = _rop(*g, c + _U(2) << h) - odd
    s10 = s // _U(10)
    # One digit shorter when exactly one of 10 s10 and 10 s10 + 10 lies in the interval
    # (tried from s >= 10, not Java's 100: repr keeps one digit), else s or s + 1, the
    # one inside or the nearer.
    upin, wpin = vbl <= s10 * _U(40), s10 * _U(40) + _U(40) <= vbr
    uin, win = vbl <= s << _U(2), s + _U(1) << _U(2) <= vbr
    short = (s >= _U(10)) & (upin != wpin)
    return np.where(short, s10 + wpin, s + (win & ~uin | tie_up & (uin == win))), k + short


def repr_blocks(values: np.ndarray, width: int):
    """Yield the repr of each float64, ',' between and '\\n' after each width, by row blocks."""
    step = width * 1024  # rows per block, which bounds the temporaries
    for lo in range(0, values.size, step):
        yield _render(values[lo:lo + step], width)


def _render(values, width):
    regular = np.isfinite(values) & (values != 0.0)
    d, point = _shortest(values.view(_U) & _LOW63)
    d *= regular  # 0.0, nan and inf are laid out as the digit 0 at 10^0
    point *= regular
    t = np.frexp(d.astype(float))[1] * 1233 >> 12  # (floor(log2 d) + 1) log10(2), floored
    n = np.maximum(t + (d >= _POW10.take(t)), 1)  # t is d's digit count or one less
    point += n  # value = 0.DIGITS 10^point
    d *= _POW10.take(17 - n)  # the digits, left-aligned to 17 places
    hi = (d // _U(10**8)).astype(np.uint32)  # d < 10**17, so hi < 10**9: uint32 from here on
    groups = [hi // np.uint32(10**8)]  # leading digit, then 4-digit groups (the low 8 mod 2**32)
    for x in (hi - groups[0] * np.uint32(10**8), d.astype(np.uint32) - hi * np.uint32(10**8)):
        groups += [q := x // np.uint32(10**4), x - q * np.uint32(10**4)]  # cheaper than x % 10**4
    digits = np.stack([_DIGITS4.take(g) for g in groups]).view(np.uint8)
    digits = digits.reshape(5, -1, 4).transpose(0, 2, 1).reshape(20, -1)[3:]  # row j: digit j
    tz = _TZ4.take(groups[4])
    for i in (3, 2, 1):  # a group counts only when every group after it is zero
        tz += (tz == 16 - 4 * i) * _TZ4.take(groups[i])
    n = np.minimum(17 - tz, n)  # without trailing zeros
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
    buf = np.full(sep[-1] + 18, ord("0"), np.uint8)
    # A digit past a value's text is a 0 and lands on the 0 fill, on punctuation written
    # below, or on a slot of a later value that a smaller j writes afterwards.
    for j in range(16, -1, -1):
        buf[base + j + (dot <= j)] = digits[j]
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
    return str(buf[:sep[-1] + 1], "ascii")
