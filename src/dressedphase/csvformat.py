"""Exact ``%.17g`` CSV text of float64 blocks, in numpy.

``block_formatter`` gives the function that turns a flat block of values
(whole rows) into the bytes ``b"%.17g" % v`` writes for each, comma
separated, a newline ending each row.  The command line's CSV writer
imports this module on its first block large enough to use it.
"""

from __future__ import annotations

from functools import cache, partial

import numpy as np

# A value's text is gathered from its 32-byte source row: 0 the sign ('-' or
# NUL), 1 '0', 2 '.', 3-19 its 17 digits, 20-23 the exponent's sign and
# digits (NUL-padded), 24 'e', 25 the separator, 26-29 'naif', 30-31 NUL.
# Gathered NULs are dropped, so a template is padded with byte 31.
_SOURCE_CONSTANTS = {1: b"0", 2: b".", 24: b"e", 26: b"naif"}
_WIDEST = 25  # -1.2345678901234567e-308,
# Rows of the per-exponent tables: leading exponent E = -325 ... 308, then 0, inf, nan.
_E_MIN, _E_MAX = -325, 308
_SPECIAL = _E_MAX - _E_MIN + 1


def _scaled_power(j: int) -> tuple:
    """(m, e, rho): 64·10^j = m·2^e·(1 + rho), the mantissa m correctly rounded to 64 bits."""
    if j >= 0:
        n = 10**j << 6
        shift = max(n.bit_length() - 64, 0)
        m, r = divmod(n, 1 << shift)
        m += 2 * r > 1 << shift or (2 * r == 1 << shift and m & 1)
        return m, shift, (n - (m << shift)) / (m << shift)
    d = 10**-j  # 2^s / d lies in (2^63, 2^64) and is never a tie
    s = d.bit_length() + 63
    m, r = divmod(1 << s, d)
    m += 2 * r > d
    return m, 6 - s, ((1 << s) - m * d) / (m * d)


def _template(form: int, k: int) -> list:
    """Source-row bytes of a value of ``form`` with ``k`` significant digits, then its separator.

    Forms 0-20 are fixed point with leading exponent E = form - 4, 21 is the
    exponent form, and 22, 23 and 24 are 0, inf and nan.
    """
    digits = list(range(3, 20))
    if form > 21:
        return [[0, 1], [0, 28, 26, 29], [26, 27, 26]][form - 22] + [25]
    if form == 21:
        return [0, 3] + ([2] + digits[1:k] if k > 1 else []) + [24, 20, 21, 22, 23, 25]
    e = form - 4
    if e < 0:
        return [0, 1, 2] + [1] * (-e - 1) + digits[:k] + [25]
    return [0] + digits[: e + 1] + ([2] + digits[e + 1 : k] if k > e + 1 else []) + [25]


@cache
def _tables():
    """The formatting tables, built on first use; None where ``longdouble`` is too short.

    Per exponent row: 64·10^(16-E) as a correctly rounded 64-bit-mantissa
    ``longdouble`` and its relative rounding error, the exponent text, and
    the template row of 17 digits in its form (the rows of 0, inf and nan
    scale 1.0 to 64·10^16, which has one digit).  Per 4-digit group: its
    ASCII bytes and its trailing zeros.  Then one template per (form, digits).
    """
    if np.finfo(np.longdouble).nmant < 63:
        return None
    powers = [_scaled_power(16 - e) for e in range(_E_MIN, _E_MAX + 1)] + [_scaled_power(16)] * 3
    high = np.array([m >> 32 for m, _, _ in powers], dtype=np.longdouble)
    low = np.array([m & 0xFFFFFFFF for m, _, _ in powers], dtype=np.longdouble)
    scale = np.ldexp(high * 2**32 + low, np.array([e for _, e, _ in powers]))
    rho = np.array([r for _, _, r in powers])
    e = np.arange(_E_MIN, _E_MAX + 1)
    exponent = b"".join((b"%+03d" % k).ljust(4, b"\0") for k in e.tolist()) + bytes(12)
    exponent = np.frombuffer(exponent, dtype=np.uint32)
    forms = np.concatenate([np.where((e >= -4) & (e <= 16), e + 4, 21), [22, 23, 24]])
    last = forms * 17 + 16
    group = np.arange(10_000, dtype=np.uint16)
    ascii4 = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1)
    ascii4 = (ascii4 + 48).astype(np.uint8).view(np.uint32).ravel()
    zeros4 = (group % 10 == 0).astype(np.uint8) + (group % 100 == 0) + (group % 1000 == 0)
    zeros4[0] = 4
    templates = np.full((25 * 17, _WIDEST), 31, dtype=np.intp)
    for form in range(25):
        for k in range(1, 18):
            row = _template(form, k)
            templates[form * 17 + k - 1, : len(row)] = row
    widths = (templates != 31).sum(axis=1)
    return scale, rho, exponent, last, ascii4, zeros4, templates, widths


def _source_rows(columns: int, values: int):
    """Source rows for blocks of ``values`` values, constants and separators in place, and their offsets."""
    rows = np.zeros((values, 32), dtype=np.uint8)
    for at, text in _SOURCE_CONSTANTS.items():
        rows[:, at : at + len(text)] = np.frombuffer(text, dtype=np.uint8)
    rows[:, 25] = np.resize(np.frombuffer(b"," * (columns - 1) + b"\n", dtype=np.uint8), values)
    return rows, np.arange(0, 32 * values, 32, dtype=np.intp)[:, None]


def _digits(x, scale, rho) -> tuple:
    """The exponent row of each value of the flat block ``x``, and its 17 significant digits.

    For finite nonzero |x| the exponent row starts at E = floor(log10|x| +
    1e-12), never below |x|'s leading exponent, and steps down once where
    X = 64·|x|·10^(16-E), one ``longdouble`` product, falls below 64·10^16.
    X is within 0.25 (the product's rounding) + 0.35 (the power's) of its
    exact value, so the integer part of X, plus 32, shifted right by 6, is
    the 17 digits rounded half up unless X + 32 lies within 1 of a multiple
    of 64.  There X's fraction and the power's error, known per row, are
    added back, leaving the product's 0.25: a value still within 0.26 of the
    multiple, or past it, takes its last digit from ``b"%.16e"``.  Digits
    10^17 carry into E + 1.  0, inf and nan have rows of their own, which
    scale the 1.0 put in their place to 10^16.
    """
    a = np.abs(x)
    finite = (a < np.inf) & (a > 0)
    special = None if finite.all() else ~finite
    if special is not None:
        a[special] = 1.0
    row = np.floor(np.log10(a) + 1e-12).astype(np.intp) - _E_MIN
    if special is not None:
        row[special] = _SPECIAL + np.isinf(x[special]) + 2 * np.isnan(x[special])
    big = a * scale[row]
    m = big.astype(np.int64)
    short = np.flatnonzero(m < 64 * 10**16)
    if short.size:
        row[short] -= 1
        big[short] = a[short] * scale[row[short]]
        m[short] = big[short].astype(np.int64)
    m += 32
    digits = m >> 6
    near = np.flatnonzero(((m + 1) & 63) < 2)
    if near.size:
        mn = m[near]
        # w: X + 32 with the power's error added back, less the multiple of
        # 64 below m.  The exact value is within 0.25 of it, so a w inside
        # [0.26, 63.74] rounds as m does.
        w = (mn & 63) + (big[near] - (mn - 32)).astype(float) + mn * rho[row[near]]
        tie = near[np.abs(w - 32) > 31.74]
        if tie.size:
            v = a[tie].tolist()
            text = np.frombuffer((b"%-23.16e" * len(v)) % tuple(v), dtype=np.uint8)
            step = (text[17::23] - 48 - digits[tie]) % 10  # 0, 1 or 9 (-1)
            digits[tie] += np.where(step > 5, step - 10, step)
    carry = np.flatnonzero(digits == 10**17)
    digits[carry] = 10**16
    row[carry] += 1
    return row, digits


def _format_block(x, tables, rows, offsets):
    """The bytes ``b"%.17g," % v`` of each value of the flat block ``x``, a newline ending each row."""
    scale, rho, exponent, last, ascii4, zeros4, templates, widths = tables
    n = x.size
    row, digits = _digits(x, scale, rho)
    high = digits // 10**8
    low = digits - high * 10**8
    first = high // 10**8
    high -= first * 10**8
    g1, g3 = high // 10**4, low // 10**4
    groups = g1, high - g1 * 10**4, g3, low - g3 * 10**4
    zeros = zeros4[groups[0]]
    for g in groups[1:]:
        zeros = zeros4[g] + (g == 0) * zeros
    key = last[row] - zeros
    source = rows[:n]
    source[:, 0] = np.signbit(x).view(np.uint8) * np.uint8(45)
    source[:, 3] = first + 48
    words = source.view(np.uint32)
    for j, g in enumerate(groups, 1):
        words[:, j] = ascii4[g]
    words[:, 5] = exponent[row]
    index = np.take(templates[:, : widths[key].max()], key, axis=0)
    index += offsets[:n]
    text = np.take(rows.reshape(-1), index)
    return text[text != 0]


def block_formatter(columns: int, values: int):
    """A function from a flat block of at most ``values`` values, in rows of ``columns``, to its bytes.

    None where ``longdouble`` has fewer than 63 mantissa bits.
    """
    tables = _tables()
    if tables is None:
        return None
    rows, offsets = _source_rows(columns, values)
    return partial(_format_block, tables=tables, rows=rows, offsets=offsets)
