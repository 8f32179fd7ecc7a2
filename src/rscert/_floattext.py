"""float.__repr__ of a whole float64 column at once.

Each |x| is scaled by 10^(16-e10) as a Dekker double-double, giving a
17-digit integer D and a residual r. The shortest p whose correctly rounded
p digits lie within half an ulp of x are the digits repr prints (round-trip
is monotone in p). They are laid out in repr's positional form (-4 < decpt
<= 16) or exponent form by one gather from a table of layouts; zeros skip
the digit search and take their fixed layout. Elements that
cannot be decided with margin go to float.__repr__ itself: near-ties, powers
of two (their gap below is half the gap above), carries to a power of ten,
|decimal exponent| above 99, subnormals, NaN and infinities.
"""

from __future__ import annotations

import numpy as np

_E10_MAX = 99  # largest |decimal exponent| handled here: two exponent digits
_TIE = 1e-7  # decisions closer than this, in units of the 17th digit, fall back
_W = 23  # longest such text: "-0.00012345678901234567", "-1.2345678901234567e-99"
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CAP = 8192  # elements formatted at once, which bounds the working memory
_SUB = 2048  # elements laid out at once, which keeps the character arrays in cache


def _pow10(k: int) -> tuple[float, float]:
    """10^k as hi + lo, hi correctly rounded and lo its correctly rounded
    error (Python's int division is correctly rounded)."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


_P_HI, _P_LO = np.array([_pow10(16 - e) for e in range(_E10_MAX, -_E10_MAX - 1, -1)]).T.copy()
_P_HH = (_P_HI.view(np.int64) & np.int64(-1 << 27)).view(np.float64)  # top 26 bits
_P_HL = _P_HI - _P_HH
_P10 = 10 ** np.arange(18, dtype=np.int64)

# Seven blocks of four characters (one complex128) per element: '-', '0',
# '.' and the first digit; four groups of four digits; the exponent
# ("e-05"); NUL. The first six are read from these tables.
_E = np.arange(-_E10_MAX, _E10_MAX + 1)
_LEAD, _GROUP, _EXP = (np.array(t, np.uint32).T.copy().view(np.complex128).ravel() for t in (
    [[45] * 10, [48] * 10, [46] * 10, 48 + np.arange(10)],
    48 + np.arange(10000) // _P10[3::-1, None] % 10,
    [[101] * _E.size, np.where(_E < 0, 45, 43), 48 + abs(_E) // 10, 48 + abs(_E) % 10],
))
_BLOCK_TABLES = (_LEAD, _GROUP, _GROUP, _GROUP, _GROUP, _EXP)


def _layouts() -> np.ndarray:
    """Where the character at each output column sits among the blocks, by
    (sign, form, p). Forms 0-19 are positional with decpt = form - 3, 20 is
    the exponent form and 21 zero. Source columns: 0 '-', 1 '0', 2 '.', 3-19
    the digits, 20-23 the exponent, 24 NUL."""
    rows = []
    for form in range(22):
        decpt = form - 3
        for p in range(1, 18):
            digits = list(range(3, 3 + max(p, decpt + 1)))
            if form == 21:
                cols = [1, 2, 1]
            elif form == 20:
                cols = digits[:1] + [2] * (p > 1) + digits[1:p] + [20, 21, 22, 23]
            elif decpt >= 1:
                cols = digits[:decpt] + [2] + digits[decpt:]
            else:
                cols = [1, 2] + [1] * -decpt + digits
            rows.append(cols + [24] * (_W - len(cols)))
    table = np.array(rows + [[0] + row[:-1] for row in rows])
    return (table >> 2) * (4 * _SUB) + (table & 3)


_LAYOUTS = _layouts()
_FORMS = 17 * np.append(np.where((_E >= -4) & (_E < 16), _E + 4, 20), 21)


def _scaled(a: np.ndarray, e10: np.ndarray):
    """a * 10^(16-e10) as floor D (int64) and residual r in [0, 1), with an
    error near 1e-14; also the leading part of the power of ten."""
    k = _E10_MAX - e10
    hi, hh, hl = _P_HI[k], _P_HH[k], _P_HL[k]
    c = 134217729.0 * a  # Veltkamp split: a = ah + al, 26 bits each
    ah = c - (c - a)
    al = a - ah
    prod = a * hi  # an integer once e10 is right: at least 1e16 > 2^53
    t = (((ah * hh - prod) + ah * hl + al * hh) + al * hl) + a * _P_LO[k]
    ft = np.floor(t)
    return prod.astype(np.int64) + ft.astype(np.int64), t - ft, hi


@np.errstate(all="ignore")  # elements that are not good are overwritten
def _shortest(x: np.ndarray):
    """The shortest round-trip digits of each |x| as a 17-digit integer D
    (the p digits, then zeros), the decimal exponent e10 of the leading
    digit, p, and whether the element was decided with margin."""
    bits = x.view(np.int64)
    a = np.abs(x)
    e10 = np.floor(np.log10(a))
    good = (np.abs(e10) <= _E10_MAX) & (bits & ((1 << 52) - 1) != 0)
    e10 = np.where(good, e10, 0.0).astype(np.int64)
    D, r, hi = _scaled(a, e10)
    off = np.flatnonzero(good & ((D < _P10[16]) | (D >= _P10[17])))  # log10 was one off
    if off.size:
        e10[off] = np.clip(e10[off] + np.where(D[off] < _P10[16], -1, 1), -_E10_MAX, _E10_MAX)
        D[off], r[off], hi[off] = _scaled(a[off], e10[off])
        good &= (D >= _P10[16]) & (D < _P10[17])
    # half an ulp of a (a normal, not a power of two), scaled like D
    half_ulp = ((bits & (0x7FF << 52)) - (53 << 52)).view(np.float64) * hi
    p = np.full(x.size, 17)  # 17 digits always round-trip
    live, Dl, rl, hl = np.arange(x.size), D, r, half_ulp
    for q in range(16, 0, -1):
        m = _P10[17 - q]
        rem = Dl - Dl // m * m
        err = np.minimum(rem + rl, (m - rem) - rl)
        good[live[np.abs(err - hl) < _TIE]] = False
        live = live[err < hl]
        if not live.size:
            break
        p[live] = q
        Dl, rl, hl = D[live], r[live], half_ulp[live]
    m = _P10[17 - p]
    rem = D - D // m * m
    down, up = rem + r, (m - rem) - r
    good &= np.abs(down - up) >= _TIE
    D += np.where(up < down, m - rem, -rem)
    good &= D < _P10[17]  # a carry to a power of ten
    return D, e10, p, good


def float_texts(column: np.ndarray) -> list[str]:
    """float.__repr__ of every element of a 1-D float64 column, with json's
    NaN, Infinity and -Infinity for the non-finite ones."""
    x = np.asarray(column, dtype=np.float64)
    n = x.size
    if n > _CAP:
        return [t for s in range(0, n, _CAP) for t in float_texts(x[s:s + _CAP])]
    zero = x == 0.0
    if zero.any():  # a zero has no digits to search for: its layout is fixed
        live = np.flatnonzero(~zero)
        D, e10 = np.zeros(n, np.int64), np.zeros(n, np.int64)
        p, good = np.ones(n, np.int64), zero.copy()
        D[live], e10[live], p[live], good[live] = _shortest(x[live])
    else:  # gathering and scattering a column with no zero only costs time
        D, e10, p, good = _shortest(x)
    e10 += _E10_MAX
    # the row of _LAYOUTS: (sign * 22 + form) * 17 + p - 1
    layout = _FORMS.take(np.where(zero, -1, e10)) + ((x.view(np.int64) >> 63) & 22 * 17) + p - 1
    top = D // _P10[12]  # the first 5 digits, then 4, 4 and 4
    low = D - top * _P10[12]
    mid = low // _P10[8]
    low -= mid * _P10[8]
    lead, mid_low = top // 10000, low // 10000
    parts = (lead, top - lead * 10000, mid, mid_low, low - mid_low * 10000, e10)
    blocks = np.empty((7, _SUB), np.complex128)
    blocks[6] = 0
    chars = blocks.view(np.uint32).ravel()
    base = np.arange(0, 4 * _SUB, 4)[:, None]
    texts = []
    for s in range(0, n, _SUB):
        t = min(n, s + _SUB) - s
        for block, (table, index) in enumerate(zip(_BLOCK_TABLES, parts)):
            # undecided elements may index out of range: they are overwritten
            table.take(index[s:s + t], out=blocks[block, :t], mode="clip")
        index = _LAYOUTS.take(layout[s:s + t], axis=0)
        index += base[:t]
        texts += chars.take(index).view(f"U{_W}").ravel().tolist()
    for i in np.flatnonzero(~good).tolist():
        text = float.__repr__(float(x[i]))
        texts[i] = _NONFINITE.get(text, text)
    return texts
