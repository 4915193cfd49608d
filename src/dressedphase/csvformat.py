"""The command line's CSV writer: exact ``%.17g`` text of float64 tables, in numpy.

``write_csv`` writes a header row, then every value of a 2-D float table as
``b"%.17g" % v`` writes it, comma separated, a newline ending each row, as
ASCII bytes to a file opened in binary mode.  It cuts the table into blocks
of about 4,096 values (whole rows).  A block of 512 values or more is
formatted by the numpy kernel ``_format_block``; a smaller block is cheaper
through one bytes ``%``, and so is every block where ``longdouble`` has
fewer than 63 mantissa bits.  The kernel's tables are built on the first
block that takes it.
"""

from __future__ import annotations

from functools import cache

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


def _scaled_powers() -> tuple:
    """Lists m, e and rho, one entry per exponent row: 64·10^(16-E) = m·2^e·(1 + rho).

    Each mantissa m is correctly rounded to 64 bits, and the powers of ten
    come from one recurrence.  A power 10^j below 1 has the mantissa of the
    quotient 2^s / 10^-j, which lies in (2^63, 2^64) and is never a tie: its
    bits are those of q = floor(2^bits / 10^-j), and each j takes q from the
    last j's by one division by 10.
    """
    ten = [1]
    for _ in range(16 - _E_MIN):
        ten.append(ten[-1] * 10)
    ms, es, rhos = [], [], []
    for d in reversed(ten):  # 10^j for j = 16 - _E_MIN ... 0
        n = d << 6
        shift = max(n.bit_length() - 64, 0)
        m, r = divmod(n, 1 << shift)
        m += 2 * r > 1 << shift or (2 * r == 1 << shift and m & 1)
        ms.append(m)
        es.append(shift)
        rhos.append((n - (m << shift)) / (m << shift))
    bits = ten[_E_MAX - 16].bit_length() + 65
    q = 1 << bits
    for d in ten[1 : _E_MAX - 15]:  # 10^-j for j = -1 ... 16 - _E_MAX
        q //= 10
        s = d.bit_length() + 63
        m = ((q >> (bits - s - 1)) + 1) >> 1
        ms.append(m)
        es.append(6 - s)
        rhos.append(((1 << s) - m * d) / (m * d))
    return ms, es, rhos


def _template(form: int) -> list:
    """Source-row bytes of a value of ``form`` with 17 significant digits, then its separator.

    Forms 0-20 are fixed point with leading exponent E = form - 4, 21 is the
    exponent form, and 22, 23 and 24 are 0, inf and nan.
    """
    digits = list(range(3, 20))
    if form > 21:
        return [[0, 1], [0, 28, 26, 29], [26, 27, 26]][form - 22] + [25]
    if form == 21:
        return [0, 3, 2, *digits[1:], 24, 20, 21, 22, 23, 25]
    e = form - 4
    if e < 0:
        return [0, 1, 2] + [1] * (-e - 1) + digits + [25]
    return [0] + digits[: e + 1] + ([2] + digits[e + 1 :] if e < 16 else []) + [25]


@cache
def _tables():
    """The formatting tables, built on first use; None where ``longdouble`` is too short.

    Per exponent row: 64·10^(16-E) as a correctly rounded 64-bit-mantissa
    ``longdouble`` and its relative rounding error, the exponent text, and
    the template row of 17 digits in its form (the rows of 0, inf and nan
    scale 1.0 to 64·10^16, which has one digit).  Per 4-digit group: its
    ASCII bytes and its trailing zeros.  Then one template per (form, digits
    k): its form's 17-digit template less each digit past the k-th that is
    not an integer digit, and less the point when no fraction digit is left.
    """
    if np.finfo(np.longdouble).nmant < 63:
        return None
    # 0, inf and nan take the row of E = 0.
    ms, es, rhos = (column + [column[-_E_MIN]] * 3 for column in _scaled_powers())
    scale = np.ldexp(np.array(ms, dtype=np.uint64).astype(np.longdouble), es)
    rho = np.array(rhos)
    e = np.arange(_E_MIN, _E_MAX + 1)
    a = np.abs(e)
    wide = a >= 100  # three exponent digits
    text = np.zeros((_SPECIAL + 3, 4), dtype=np.uint8)
    text[:_SPECIAL, 0] = np.where(e < 0, 45, 43)  # '-' or '+'
    text[:_SPECIAL, 1] = np.where(wide, a // 100, a // 10 % 10) + 48
    text[:_SPECIAL, 2] = np.where(wide, a // 10 % 10, a % 10) + 48
    text[:_SPECIAL, 3] = np.where(wide, a % 10 + 48, 0)
    exponent = text.view(np.uint32).ravel()
    forms = np.concatenate([np.where((e >= -4) & (e <= 16), e + 4, 21), [22, 23, 24]])
    last = forms * 17 + 16
    digits = np.arange(48, 58, dtype=np.uint8)
    ascii4 = np.stack(np.meshgrid(digits, digits, digits, digits, indexing="ij"), axis=-1)
    ascii4 = ascii4.view(np.uint32).ravel()
    group = np.arange(10_000, dtype=np.uint16)
    zeros4 = (group % 10 == 0).astype(np.uint8) + (group % 100 == 0) + (group % 1000 == 0)
    zeros4[0] = 4
    full = np.full((25, 1, _WIDEST), 31, dtype=np.intp)  # each form's 17-digit template
    for form in range(25):
        row = _template(form)
        full[form, 0, : len(row)] = row
    whole = np.r_[[0] * 4, 1:18, 1, 0, 0, 0][:, None, None]  # integer digits of each form
    k = np.arange(1, 18)[:, None]
    digit = (full >= 3) & (full <= 19)
    kept = (full != 31) & np.where(full == 2, k > whole, ~digit | (full - 3 < np.maximum(k, whole)))
    widths = kept.sum(axis=2).ravel()
    templates = np.full((25 * 17, _WIDEST), 31, dtype=np.intp)
    templates[np.arange(_WIDEST) < widths[:, None]] = np.broadcast_to(full, kept.shape)[kept]
    return scale, rho, exponent, last, ascii4, zeros4, templates, widths


def _source_rows(columns: int, rows: int):
    """Source rows for blocks of ``rows`` rows of ``columns``, constants and separators set, and their offsets."""
    values = rows * columns
    source = np.zeros((values, 32), dtype=np.uint8)
    for at, text in _SOURCE_CONSTANTS.items():
        source[:, at : at + len(text)] = np.frombuffer(text, dtype=np.uint8)
    source[:, 25] = np.tile(np.frombuffer(b"," * (columns - 1) + b"\n", dtype=np.uint8), rows)
    return source, np.arange(0, 32 * values, 32, dtype=np.intp)[:, None]


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


def write_csv(path, header: list[str], table) -> None:
    """Write ``header``, then each row of the 2-D float ``table``, each value as ``b"%.17g" % v`` writes it.

    512 values is the crossover measured between one bytes ``%`` and the kernel.
    """
    table = np.asarray(table, dtype=float)
    columns = len(header)
    block_rows = max(1, 4096 // columns)
    row = (",".join(["%.17g"] * columns) + "\n").encode()
    kernel = None  # (tables, source rows, offsets) from the first large block; False without tables
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(table), block_rows):
            block = table[start : start + block_rows]
            large = block.size >= 512
            if large and kernel is None:
                tables = _tables()
                kernel = tables is not None and (tables, *_source_rows(columns, block_rows))
            if large and kernel:
                fh.write(_format_block(block.ravel(), *kernel))
            else:
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))
