"""Exact vectorised ``'%.17g'`` formatting of float64 tables.

``RowFormat(separators, end).format(table)`` returns one line per row of a
2-D float64 array: each value byte for byte as ``'%.17g' % x`` writes it,
then its column's separator, and ``end`` after the last value. Seventeen
significant digits let every binary64 value survive a write/read round trip
bit for bit.

The work is vectorised over the whole table in two stages.

* Digits. A finite nonzero x with decimal exponent X (10**X <= |x| <
  10**(X+1)) has the digits D = round(|x| * 10**(16 - X)), 17 of them. Each
  power 10**p is held as (H + L) * 2**E with H in [1, 2), built from exact
  integers the first time an exponent occurs. A Dekker (1971) two-product
  gives |x| * H exactly as hi + lo, and the L term adds the rest, so the
  scaled value is known to about 1e-14 out of 1e17. A value whose
  fractional part lies within 1e-6 of one half takes its digits from
  Python's own formatting, so exact ties (rounded half to even) never rest
  on that error bound.
* Layout. Each value gets 48 byte slots, six 8-byte words: sign, the
  "0.000" lead of a small fixed-point value, 17 digits each followed by a
  decimal-point slot, "e", exponent sign and three exponent digits, then
  its separator. Digits come four at a time from a table of "d.d.d.d."
  words. A keep-mask row chosen by (sign, layout, significant-digit count)
  zeroes the unused slots, and ``bytes.translate`` drops the zeros.

The tables are built on the first call, not at import.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

# Each value fills six 8-byte words: sign, the "0.000" lead, the leading
# digit and its point slot; four words of four digits, each digit followed
# by a point slot; "e", exponent sign, three exponent digits and the first
# three bytes of the value's separator (longer ones spill into more words).
_WORDS = 6
_SLOTS = 8 * _WORDS
_SIGN, _LEAD, _DIGITS, _EXP, _SEP = 0, 1, 6, 40, 45
# layouts: fixed point for X = -4..16 (index X + 4), exponent with two or
# three digits, and a word (inf, nan) in the exponent-digit slots
_SCI2, _SCI3, _WORD, _LAYOUTS = 21, 22, 23, 24
_TIE_WINDOW = 1e-6
# p = 16 - X spans every float64 exponent, with one correction step each side
_P_MIN, _P_MAX = -293, 341
_X_MAX = 330  # |X| bound of the exponent table
_INF, _NAN = 2 * _X_MAX + 1, 2 * _X_MAX + 2  # its two word entries
_SPLIT = 2.0**27 + 1.0  # Dekker's splitter for 53-bit significands
_ZERO, _POINT = ord("0"), ord(".")


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of 8k bytes as rows of k native-order words (one word per row if k is 1)."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint64).squeeze(-1)


def _keep_masks() -> np.ndarray:
    """0/0xFF byte masks, indexed by (sign * _LAYOUTS + layout) * 17 + digits - 1."""
    sign = np.arange(2)[:, None, None, None]
    layout = np.arange(_LAYOUTS)[None, :, None, None]
    k = np.arange(1, 18)[None, None, :, None]
    slot = np.arange(_SLOTS)
    x = layout - 4
    fixed, sci = layout < _SCI2, (layout == _SCI2) | (layout == _SCI3)
    position = (slot - _DIGITS) // 2  # digit (or the point after it) of the slot
    in_digits = (slot >= _DIGITS) & (slot < _EXP)
    digit, point = in_digits & (slot % 2 == 0), in_digits & (slot % 2 == 1)
    last = np.where(fixed & (x >= 0), np.maximum(x, k - 1), k - 1)
    keep = (slot == _SIGN) & (sign == 1)
    keep = keep | fixed & (x < 0) & (slot >= _LEAD) & (slot < _LEAD + 1 - x)
    keep = keep | (fixed | sci) & digit & (position <= last)
    keep = keep | fixed & (x >= 0) & point & (position == x) & (k - 1 > x)
    keep = keep | sci & point & (position == 0) & (k > 1)
    exponent = (slot == _EXP) | (slot == _EXP + 1) | (slot == _EXP + 3) | (slot == _EXP + 4)
    keep = keep | sci & exponent | (layout == _SCI3) & (slot == _EXP + 2)
    keep = keep | (layout == _WORD) & (slot >= _EXP + 2) & (slot < _SEP)
    return _words(keep.reshape(-1, _WORDS, 8) * np.uint8(0xFF))


class _Formatter:
    """The lookup tables, and the powers of ten met so far."""

    def __init__(self) -> None:
        # "d.d.d.d." for each four-digit group, and its count of trailing zeros
        chars = np.full((10, 10, 10, 10, 8), _POINT, dtype=np.uint8)
        for j in range(4):
            chars[..., 2 * j] = (np.arange(10, dtype=np.uint8) + _ZERO).reshape(
                [10 if i == j else 1 for i in range(4)])
        self.quads = _words(chars.reshape(-1, 8))
        group = np.arange(10000)
        self.trailing = sum((group % 10**i == 0).astype(np.int8) for i in range(1, 5))
        self.heads = _words([list(b"-0.000") + [_ZERO + i, _POINT] for i in range(10)])
        x = np.arange(-_X_MAX, _X_MAX + 1)
        exps = np.zeros((len(x) + 2, 8), dtype=np.uint8)
        exps[: len(x), 0] = ord("e")
        exps[: len(x), 1] = np.where(x < 0, ord("-"), ord("+"))
        exps[: len(x), 2:5] = chars.reshape(-1, 8)[np.abs(x), 2:8:2]
        exps[_INF, 2:5], exps[_NAN, 2:5] = list(b"inf"), list(b"nan")
        self.exps = _words(exps)
        # the keep-mask row of a positive value with one digit, by exponent table entry
        layout = np.where(np.abs(x) >= 100, _SCI3, _SCI2)
        layout[(x >= -4) & (x <= 16)] = x[(x >= -4) & (x <= 16)] + 4
        self.codes = np.concatenate([layout, [_WORD, _WORD]]) * 17
        self.keep = _keep_masks()
        # per p: H split into two 26-bit halves, L and E
        self.powers = np.zeros((4, _P_MAX - _P_MIN + 1))
        self.known = np.zeros(_P_MAX - _P_MIN + 1, dtype=bool)
        self.zeros = np.empty((2, _WORDS), dtype=np.uint64)
        self._fill(np.array([0.0, -0.0]), self.zeros)

    def _power(self, p: int) -> None:
        """Store 10**p = (H + L) * 2**E, H correctly rounded and L the rounded rest."""
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        e = num.bit_length() - 1 if p >= 0 else -den.bit_length()
        h = (num << max(-e, 0)) / (den << max(e, 0))
        h_int = int(h * 2.0**52)
        # L = (num * 2**(52 - e) - h_int * den) / (den * 2**52), scaled to integers
        rest = (num << max(52 - e, 0)) - ((h_int * den) << max(e - 52, 0))
        low = rest / ((den << 52) << max(e - 52, 0))
        c = h * _SPLIT
        h_hi = c - (c - h)
        self.powers[:, p - _P_MIN] = (h_hi, h - h_hi, low, e)
        self.known[p - _P_MIN] = True

    def scaled(self, m: np.ndarray, e: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """m * 2**e * 10**(16 - x) as hi + lo; hi is an integer above 2**53."""
        index = 16 - x - _P_MIN
        for i in set(index[~self.known[index]].tolist()):
            self._power(i + _P_MIN)
        h_hi, h_lo, low, exp = (column.take(index) for column in self.powers)
        hi = m * (h_hi + h_lo)
        c = m * _SPLIT
        m_hi = c - (c - m)
        m_lo = m - m_hi
        lo = ((m_hi * h_hi - hi) + m_hi * h_lo + m_lo * h_hi) + m_lo * h_lo + m * low
        shift = e + exp.astype(np.int64)
        return np.ldexp(hi, shift), np.ldexp(lo, shift)

    def digits(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The 17 rounded significant digits D and the exponent X of finite nonzero x."""
        a = np.abs(x)
        m, e = np.frexp(a)
        exp = np.floor(np.log10(a)).astype(np.int64)
        hi, lo = self.scaled(m, e, exp)
        # floor(log10) may be off by one. hi - 1e16 and hi - 1e17 are exact
        # where it matters, so each sum has the sign of the exact difference;
        # only within the 1e-14 error of 10**16 or 10**17 can it be wrong,
        # and there both exponents give the same digits
        step = (((hi - 1e17) + lo) >= 0).astype(np.int64) - (((hi - 1e16) + lo) < 0)
        moved = np.flatnonzero(step)
        if moved.size:
            exp[moved] += step[moved]
            hi[moved], lo[moved] = self.scaled(m[moved], e[moved], exp[moved])
        floor = np.floor(lo)
        frac = lo - floor
        d = hi.astype(np.int64) + floor.astype(np.int64) + (frac >= 0.5)
        carry = d >= 10**17
        d[carry] = 10**16
        exp[carry] += 1
        for i in np.flatnonzero(np.abs(frac - 0.5) < _TIE_WINDOW):
            text = "%.16e" % a[i]
            d[i], exp[i] = int(text[0] + text[2:18]), int(text[19:])
        return d, exp

    def fill(self, x: np.ndarray, words: np.ndarray) -> None:
        """Write the kept bytes of each value of x into its row of _WORDS words.

        Exact zeros, most of a sparse matrix, copy the rows of 0.0 and -0.0,
        so only the other values pay for digits and layout.
        """
        nonzero = x != 0.0
        if nonzero.all():
            self._fill(x, words)
            return
        words[:] = self.zeros.take(np.signbit(x).astype(np.intp), axis=0)
        index = np.flatnonzero(nonzero)
        if index.size:
            part = np.empty((index.size, _WORDS), dtype=np.uint64)
            self._fill(x[index], part)
            words[index] = part

    def _fill(self, x: np.ndarray, words: np.ndarray) -> None:
        regular = np.isfinite(x) & (x != 0.0)
        if regular.all():
            d, exp = self.digits(x)
        else:
            d = np.zeros(len(x), dtype=np.int64)
            exp = np.zeros(len(x), dtype=np.int64)
            d[regular], exp[regular] = self.digits(x[regular])
        top = d // 10**16
        middle, bottom = divmod(d - top * 10**16, 10**8)
        words[:, 0] = self.heads.take(top)
        trailing = np.zeros(len(x), dtype=np.int8)
        for j, group in enumerate((middle // 10**4, middle % 10**4, bottom // 10**4, bottom % 10**4)):
            words[:, j + 1] = self.quads.take(group)
            trailing = np.where(group == 0, trailing + 4, self.trailing.take(group))
        position = exp + _X_MAX
        sign = np.signbit(x)
        named = np.flatnonzero(~np.isfinite(x))
        if named.size:
            nan = np.isnan(x[named])
            position[named] = np.where(nan, _NAN, _INF)
            sign[named] &= ~nan
        words[:, 5] = self.exps.take(position)
        code = self.codes.take(position) + sign * (_LAYOUTS * 17) + (16 - trailing)
        words &= self.keep[code]


@functools.cache
def _formatter() -> _Formatter:
    return _Formatter()


class RowFormat:
    """The byte layout of one table's lines: value j of a row, then
    separators[j] (one per column but the last), and end after the last value."""

    def __init__(self, separators: Sequence[bytes], end: bytes = b"\n") -> None:
        ends = [*separators, end]
        spill = -(-max(0, max(map(len, ends)) - (_SLOTS - _SEP)) // 8)
        gaps = np.zeros((len(ends), 8 * (1 + spill)), dtype=np.uint8)
        for sep in set(ends):
            columns = [j for j, other in enumerate(ends) if other == sep]
            gaps[columns, _SEP % 8: _SEP % 8 + len(sep)] = np.frombuffer(sep, dtype=np.uint8)
        self.gaps = gaps.view(np.uint64)

    def format(self, table: np.ndarray) -> bytes:
        """The lines of a 2-D float table with one column per separator and end."""
        values = np.ascontiguousarray(table, dtype=float)
        rows, cols = values.shape
        cells = np.empty((rows, cols, _WORDS - 1 + self.gaps.shape[1]), dtype=np.uint64)
        _formatter().fill(values.reshape(-1), cells.reshape(rows * cols, -1)[:, :_WORDS])
        cells[:, :, _WORDS - 1] |= self.gaps[:, 0]
        cells[:, :, _WORDS:] = self.gaps[:, 1:]
        return cells.tobytes().translate(None, b"\0")
