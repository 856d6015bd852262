"""repr of a whole float64 array at once, byte for byte, in blocks of 1,024 rows.

Digits come from Schubfach (R. Giulietti, 2020) on uint64 arrays and 32-bit limb tables, in
4-digit groups; the layout is Python's 'r' format, scattered from the last digit.

Every array of block length is a row of one workspace that numpy fills through `out=`,
allocated once per call and freed on return: a render of 1,024 nine-field rows peaks at
about 1.5 MiB, and nothing is kept between calls. The text holds the values alone: a caller
writes any header itself.
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
# Column x + 324, row i: byte i of "e-05", "e+100" and so on; the separator, written
# later, overwrites the pad byte of a 2-digit exponent.
_EXPONENTS = np.array([list(f"e{x:+03},".encode()[:5]) for x in range(-324, 309)], np.uint8).T


def repr_blocks(values: np.ndarray, width: int):
    """Yield the repr of each float64, ',' between and '\\n' after each width, by row blocks."""
    step = width * 1024  # rows per block, which bounds the workspace
    size = min(values.size, step)
    # 13 rows of 64-bit words, 8 of flags or bytes, and the text: at most 25 bytes per value
    # with its separator, and an overrun.
    ws = np.empty((13, size), _U), np.empty((8, size), bool), np.empty(25 * size + 18, np.uint8)
    for lo in range(0, values.size, step):
        yield _render(values[lo:lo + step], width, *ws)


def _mulhi(ah, al, bh, bl, out, tmp):
    """out = the high word of a*b for a = ah 2**32 + al < 2**63 and b = bh 2**32 + bl < 2**60."""
    np.right_shift(np.multiply(al, bl, out=out), _U(32), out=out)
    out += np.multiply(al, bh, out=tmp)
    out += np.multiply(ah, bl, out=tmp)
    out >>= _U(32)
    return np.add(out, np.multiply(ah, bh, out=tmp), out=out)


def _rop(g, cp, cl, z, out, tmp):
    """out = g cp / 2**127 rounded to odd, for g = g1 2**63 + g0 in limbs (Schubfach's rop);
    cl, z and tmp are scratch, and cp is overwritten."""
    g1h, g1l, g0h, g0l = g
    np.left_shift(np.multiply(g1h, cp, out=z), _U(32), out=z)
    z += np.multiply(g1l, cp, out=tmp)
    z >>= _U(1)
    np.bitwise_and(cp, _LOW32, out=cl)
    cp >>= _U(32)
    z += _mulhi(g0h, g0l, cp, cl, out, tmp)  # g1 cp mod 2**64
    np.add(_mulhi(g1h, g1l, cp, cl, out, tmp), np.right_shift(z, _U(63), out=tmp), out=out)
    np.add(np.bitwise_and(z, _LOW63, out=z), _LOW63, out=z)
    return np.bitwise_or(out, np.right_shift(z, _U(63), out=z), out=out)


def _shortest(bits, w, f):
    """(d, k) in rows w[12] and w[6]: d 10^k is the shortest decimal that rounds to each
    float, given as its bits. The other rows of w and f are scratch."""
    g, (c, e, k, cp, cl, z, t, vb, s) = w[:4], w[4:]
    irregular, odd, tie_up, uin, win, upin, wpin, short = f
    k, t_i = k.view(np.int64), t.view(np.int64)
    np.bitwise_and(bits, _U(2**52 - 1), out=c)
    np.bitwise_and(np.right_shift(bits, _U(52), out=e), _U(2**11 - 1), out=e)
    np.equal(c, _U(0), out=irregular)  # c 2^q opens a binade: the gap below is half the gap above
    irregular &= np.greater(e, _U(1), out=odd)
    c |= np.left_shift(np.minimum(e, _U(1), out=t), _U(52), out=t)
    q = e.view(np.int64)
    np.subtract(np.maximum(q, 1, out=q), 1075, out=q)  # the float is c 2^q
    np.multiply(q, 661971961083, out=k)
    np.subtract(k, 274743187321, out=k, where=irregular)
    k >>= 41  # floor(log10(2^q)), or of 3/4 2^q
    q += np.right_shift(np.multiply(k, -913124641741, out=t_i), 38, out=t_i)
    q += 2  # h = q + floor(log2(10^-k)): 2..5
    h = q.view(_U)
    np.subtract(k, _K_MIN, out=t_i)
    for row, out in zip(_G, g):
        np.take(row, t_i, out=out, mode="clip")
    np.not_equal(np.bitwise_and(c, _U(1), out=t), _U(0), out=odd)  # ties to even: an odd c
    c <<= _U(2)  # excludes the interval's ends. vb, vbl, vbr: 4 (c, its lower and upper
    _rop(g, np.left_shift(c, h, out=cp), cl, z, vb, t)  # rounding bound) 2^q / 10^k, to odd
    np.right_shift(vb, _U(2), out=s)
    vb &= _U(3)  # s + 1 is nearer, or as near and even:
    np.greater(np.add(vb, np.bitwise_and(s, _U(1), out=t), out=vb), _U(2), out=tie_up)
    np.add(np.subtract(c, _U(2), out=cp), irregular, out=cp)
    vbl = _rop(g, np.left_shift(cp, h, out=cp), cl, z, vb, t)
    vbl += odd
    c += _U(2)
    vbr = _rop(g, np.left_shift(c, h, out=c), cl, z, cp, t)
    vbr -= odd
    s10 = np.floor_divide(s, _U(10), out=z)
    # One digit shorter when exactly one of 10 s10 and 10 s10 + 10 lies in the interval
    # (tried from s >= 10, not Java's 100: repr keeps one digit), else s or s + 1, the
    # one inside or the nearer.
    np.less_equal(vbl, np.multiply(s10, _U(40), out=t), out=upin)
    np.less_equal(np.add(t, _U(40), out=t), vbr, out=wpin)
    np.less_equal(vbl, np.left_shift(s, _U(2), out=t), out=uin)
    np.less_equal(np.left_shift(np.add(s, _U(1), out=t), _U(2), out=t), vbr, out=win)
    np.not_equal(upin, wpin, out=short)
    short &= np.greater_equal(s, _U(10), out=upin)
    tie_up &= np.equal(uin, win, out=upin)
    s += np.bitwise_or(np.greater(win, uin, out=win), tie_up, out=win)  # win and not uin
    np.subtract(np.add(s10, wpin, out=s10), s, out=s10)
    s += np.multiply(s10, short, out=s10)  # s10 + wpin where short, modulo 2**64
    k += short
    return s, k


def _render(values, width, words, flags, text):
    size = values.size
    w, f = words[:, :size], flags[:, :size]
    d, point = _shortest(values.view(_U), w, f)
    wi = w.view(np.int64)
    finite, regular, b, expo, neg = f[:5]
    tz, tz_next = f[5].view(np.uint8), f[6].view(np.uint8)
    np.isfinite(values, out=finite)
    np.not_equal(values, 0.0, out=regular)
    regular &= finite
    d *= regular  # 0.0, nan and inf are laid out as the digit 0 at 10^0
    point *= regular
    mant, exponent, n, p = w[0].view(float), w[3].view(np.int32)[:size], wi[1], w[2]
    np.copyto(mant, d)
    np.frexp(mant, out=(mant, exponent))
    np.copyto(n, exponent)  # floor(log2 d) + 1, times log10(2) and floored:
    np.right_shift(np.multiply(n, 1233, out=n), 12, out=n)  # d's digit count or one less
    n += np.greater_equal(d, np.take(_POW10, n, out=p, mode="clip"), out=b)
    np.maximum(n, 1, out=n)
    point += n  # value = 0.DIGITS 10^point
    d *= np.take(_POW10, np.subtract(17, n, out=wi[3]), out=p, mode="clip")  # left-aligned
    g0, g1, g2, g3, g4 = groups = w[7:12]  # d < 10**17: its leading digit, then 4-digit groups
    np.floor_divide(d, _U(10**8), out=g2)
    np.subtract(d, np.multiply(g2, _U(10**8), out=p), out=g4)
    np.floor_divide(g2, _U(10**8), out=g0)
    g2 -= np.multiply(g0, _U(10**8), out=p)
    for x, q in ((g2, g1), (g4, g3)):
        np.floor_divide(x, _U(10**4), out=q)
        x -= np.multiply(q, _U(10**4), out=p)  # cheaper than x % 10**4
    groups = groups.view(np.int64)
    np.take(_TZ4, groups[4], out=tz, mode="clip")
    for i in (3, 2, 1):  # a group counts only when every group after it is zero
        np.take(_TZ4, groups[i], out=tz_next, mode="clip")
        tz_next *= np.equal(tz, 16 - 4 * i, out=b)
        tz += tz_next
    np.minimum(n, np.subtract(17, tz, out=tz), out=n)  # without trailing zeros
    # Digit j is byte (j + 3) % 4 of group (j + 3) // 4's ASCII, copied to a row of its own.
    words = [half for r in (w[0], w[2], w[3]) for half in r.view(np.uint32).reshape(2, size)]
    blocks = [half for r in (w[4], w[5], w[12]) for half in r.view(np.uint8).reshape(2, 4, size)]
    for group, word, block in zip(groups, words, blocks):
        np.take(_DIGITS4, group, out=word, mode="clip")
        np.copyto(block, word.view(np.uint8).reshape(size, 4).T)
    digits = [row for block in blocks[:5] for row in block][3:]
    lead, length, sep, base, column, idx, e_len, mark = (wi[r] for r in (0, 2, 3, 7, 8, 9, 10, 11))
    np.logical_or(np.less(point, -3, out=expo), np.greater(point, 16, out=b), out=expo)
    np.signbit(values, out=neg)
    neg &= np.logical_not(np.isnan(values, out=b), out=b)
    np.maximum(np.subtract(1, point, out=lead), 0, out=lead)
    np.copyto(lead, 0, where=expo)  # the zeros of 0.000ddd
    np.add(np.maximum(n, point, out=length), np.greater_equal(point, n, out=b), out=length)
    length += 1  # characters after the '-' and the zeros, fixed form
    # d[.ddd]e-XX with exponent x = point - 1: 'e' goes mark = n + (n > 1) after the first
    # digit, and 4 characters follow, 5 when |x| > 99
    np.add(n, np.greater(n, 1, out=b), out=mark)
    np.add(mark, np.greater(point, 100, out=b), out=e_len)
    e_len += np.less(point, -98, out=b)
    e_len += 4
    np.copyto(length, e_len, where=expo)
    np.add(np.add(length, neg, out=length), lead, out=length)
    np.cumsum(np.add(length, 1, out=sep), out=sep)
    sep -= 1
    np.add(np.subtract(sep, length, out=base), neg, out=base)
    base += lead  # where each value's first digit goes
    exp_at = np.flatnonzero(expo)
    m = exp_at.size
    at = np.take(np.add(base, mark, out=mark), exp_at, out=e_len[:m], mode="clip")
    column = np.take(point, exp_at, out=column[:m], mode="clip")
    column += 323  # x + 324, a column of _EXPONENTS
    np.copyto(point, 1, where=expo)
    dot = point  # digit j goes after the decimal point when j >= dot
    end = int(sep[-1]) + 1
    buf = text[:end + 17]
    buf.fill(ord("0"))
    # A digit past a value's text is a 0 and lands on the 0 fill, on punctuation written
    # below, or on a slot of a later value that a smaller j writes afterwards.
    np.add(base, 1, out=idx)  # base + (dot <= j), from j = 16, which every dot reaches
    for j in range(16, -1, -1):
        buf[j:][idx] = digits[j]
        idx -= np.equal(dot, j, out=b)
    buf[np.add(base, dot, out=idx)] = ord(".")
    # '-' at the start of a negative value's text, and onto the separator before any other
    # value (for the first, onto buf[-1] in the overrun), which the separators written
    # below overwrite.
    buf[np.subtract(np.subtract(base, lead, out=idx), 1, out=idx)] = ord("-")
    for i, row in enumerate(_EXPONENTS):
        buf[i:][at] = np.take(row, column, out=f[7].view(np.uint8)[:m], mode="clip")
    buf[sep] = ord(",")
    buf[sep[width - 1::width]] = ord("\n")
    for i in np.flatnonzero(np.logical_not(finite, out=b)).tolist():
        text = repr(float(values[i])).encode()
        buf[sep[i] - len(text):sep[i]] = np.frombuffer(text, np.uint8)
    return str(buf[:end], "ascii")
