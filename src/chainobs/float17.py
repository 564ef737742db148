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
  its separator. Tables give the sign and leading digit, the other digits
  four at a time as "d.d.d.d." words, and the exponent word cut to its
  layout. A keep-mask row chosen by (layout, position of the last nonzero
  digit) zeroes the unused slots, and ``bytes.translate`` drops the zeros.

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
# layouts: fixed point for X = -4..16 (index X + 4), exponent, and a word
# (inf, nan) in the exponent-digit slots
_SCI, _WORD, _LAYOUTS = 21, 22, 23
_TIE_WINDOW = 1e-6
# p = 16 - X spans every float64 exponent, with one correction step each side
_P_MIN, _P_MAX = -293, 341
_X_MAX = 330  # |X| bound of the exponent table
_INF, _NAN = 2 * _X_MAX + 1, 2 * _X_MAX + 2  # its two word entries
# Dekker's splits: Veltkamp's of H into 26-bit halves, and m's top 26 bits
_SPLIT, _HIGH = 2.0**27 + 1.0, np.uint64(2**64 - 2**27)
_ZERO, _POINT = ord("0"), ord(".")
_GROUP = np.arange(0, 40000, 10000)[:, None]  # where each group's row of the last-digit table starts


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of 8k bytes as rows of k native-order words (one word per row if k is 1)."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint64).squeeze(-1)


def _keep_masks() -> np.ndarray:
    """0/0xFF byte masks, indexed by layout * 17 + the position of the last digit shown."""
    layout = np.arange(_LAYOUTS)[:, None, None]
    last = np.arange(17)[:, None]
    slot = np.arange(_SLOTS)
    point = np.where(layout < _SCI, layout - 4, 0)  # the digit a point may follow
    position, odd = np.divmod(slot - _DIGITS, 2)
    body = (layout < _WORD) & (slot >= _DIGITS) & (slot < _EXP)
    keep = (slot == _SIGN) | (slot >= _EXP) | (point < 0) & (slot >= _LEAD) & (slot < _LEAD + 1 - point)
    keep = keep | body & (odd == 0) & (position <= np.maximum(point, last))
    keep = keep | body & (odd == 1) & (position == point) & (last > point)
    return _words(keep.reshape(-1, _WORDS, 8) * np.uint8(0xFF))


class _Formatter:
    """The lookup tables, and the powers of ten met so far."""

    def __init__(self) -> None:
        # "d.d.d.d." for each four-digit group
        chars = np.full((10, 10, 10, 10, 8), _POINT, dtype=np.uint8)
        for j in range(4):
            chars[..., 2 * j] = (np.arange(10, dtype=np.uint8) + _ZERO).reshape(
                [10 if i == j else 1 for i in range(4)])
        self.quads = _words(chars.reshape(-1, 8))
        # by group row and group, the position in D of the group's last nonzero digit
        self.last = np.repeat(np.arange(4, 17, 4, dtype=np.int8)[:, None], 10000, axis=1)
        for step in (10, 100, 1000, 10000):
            self.last[:, ::step] -= 1
        self.last[:, 0] = 0
        # sign, lead and leading digit, by 10 * sign + digit
        self.heads = _words([[s, *b"0.000", _ZERO + i, _POINT] for s in (0, ord("-")) for i in range(10)])
        # the exponent word of each layout, by X + _X_MAX, then inf and nan
        x = np.arange(-_X_MAX, _X_MAX + 1)
        sci = (x < -4) | (x > 16)
        exps = np.zeros((len(x) + 2, 8), dtype=np.uint8)
        exps[: len(x), 0] = ord("e")
        exps[: len(x), 1] = np.where(x < 0, ord("-"), ord("+"))
        exps[: len(x), 2:5] = chars.reshape(-1, 8)[np.abs(x), 2:8:2]
        exps[: len(x), 2] *= np.abs(x) >= 100
        exps[: len(x)] *= sci[:, None]
        exps[_INF, 2:5], exps[_NAN, 2:5] = list(b"inf"), list(b"nan")
        self.exps = _words(exps)
        self.codes = np.append(np.where(sci, _SCI, x + 4), [_WORD, _WORD]) * 17
        self.keep = _keep_masks()
        # the rows of 0.0 and -0.0: "0" (fixed point, X = 0, one digit) and "-0"
        self.zeros = np.zeros((2, _WORDS), dtype=np.uint64)
        self.zeros[:, 0] = self.heads[[0, 10]] & self.keep[4 * 17, 0]
        # per p: H, H split into two 26-bit halves, L and E
        self.powers = np.zeros((5, _P_MAX - _P_MIN + 1))
        self.known = np.zeros(_P_MAX - _P_MIN + 1, dtype=bool)

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
        self.powers[:, p - _P_MIN] = (h, h_hi, h - h_hi, low, e)
        self.known[p - _P_MIN] = True

    def scaled(self, m: np.ndarray, e: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """D = round(m * 2**e * 10**(16 - x)), whether that was within _TIE_WINDOW
        of a tie, and whether the scaled value is below 10**16."""
        index = (16 - _P_MIN) - x
        if not self.known.take(index).all():
            for i in set(index[~self.known.take(index)].tolist()):
                self._power(i + _P_MIN)
        h, h_hi, h_lo, low, exp = self.powers.take(index, axis=1)
        hi = m * h
        m_hi = (m.view(np.uint64) & _HIGH).view(np.float64)
        m_lo = m - m_hi
        lo = ((m_hi * h_hi - hi) + m_hi * h_lo + m_lo * h_hi) + m_lo * h_lo + m * low
        # int32 shifts: numpy's ldexp loop for int64 ones is many times slower
        shift = e + exp.astype(np.int32)
        hi, lo = np.ldexp(hi, shift), np.ldexp(lo, shift)
        # hi is an integer above 2**53, so D = hi + round(lo). hi - 1e16 is exact
        # where it matters, so the sum has the sign of the exact difference except
        # within the 1e-14 error, where both exponents give the same digits
        near = np.rint(lo)
        tie = np.abs(lo - near) > 0.5 - _TIE_WINDOW
        return hi.astype(np.int64) + near.astype(np.int64), tie, ((hi - 1e16) + lo) < 0

    def digits(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The 17 rounded significant digits D and the exponent X of finite nonzero x."""
        a = np.abs(x)
        m, e = np.frexp(a)
        exp = np.floor(np.log10(a)).astype(np.int64)
        d, tie, below = self.scaled(m, e, exp)
        # floor(log10) may be off by one, and D may round up to 10**17
        moved = np.flatnonzero((d >= 10**17) | below)
        if moved.size:
            exp[moved] += np.where(d[moved] >= 10**17, 1, -1)
            d[moved], again, _ = self.scaled(m[moved], e[moved], exp[moved])
            tie[moved] |= again
            carry = moved[d[moved] >= 10**17]  # moved down from 10**16 - 0.05 or above
            d[carry] = 10**16
            exp[carry] += 1
        for i in np.flatnonzero(tie):
            text = "%.16e" % a[i]
            d[i], exp[i] = int(text[0] + text[2:18]), int(text[19:])
        return d, exp

    def fill(self, x: np.ndarray, words: np.ndarray) -> None:
        """Write the kept bytes of each value of x into its row of _WORDS words.

        Where exact zeros are most of x (a sparse matrix), they copy the rows
        of 0.0 and -0.0; only the other values pay for digits and layout."""
        if 2 * np.count_nonzero(x) >= len(x):
            return self._fill(x, words)
        words[:] = self.zeros.take(np.signbit(x).astype(np.intp), axis=0)
        index = np.flatnonzero(x)
        if index.size:
            part = np.empty((index.size, _WORDS), dtype=np.uint64)
            self._fill(x[index], part)
            words[index] = part

    def _fill(self, x: np.ndarray, words: np.ndarray) -> None:
        finite = np.isfinite(x)
        regular = finite & (x != 0.0)
        # zeros, inf and nan take the digits of 1.0, and zeros then D = 0
        d, exp = self.digits(np.where(regular, x, 1.0))
        d *= regular
        top = d // 10**16
        # the other 16 digits as two halves in rows 1 and 3, then four groups of four
        groups = np.empty((2, 2, len(x)), dtype=np.int64)
        low = np.subtract(d, top * 10**16, out=groups[1, 1])
        low -= np.floor_divide(low, 10**8, out=groups[0, 1]) * 10**8
        np.floor_divide(groups[:, 1], 10**4, out=groups[:, 0])
        groups[:, 1] -= groups[:, 0] * 10**4
        groups = groups.reshape(4, -1)
        position = exp + _X_MAX
        sign = np.signbit(x)
        if not finite.all():
            named = np.flatnonzero(~finite)
            nan = np.isnan(x[named])
            position[named] = np.where(nan, _NAN, _INF)
            sign[named] &= ~nan
        words[:, 0] = self.heads.take(top + 10 * sign)
        words[:, 1:5] = self.quads.take(groups).T
        words[:, 5] = self.exps.take(position)
        last = np.maximum.reduce(self.last.take(groups + _GROUP))
        words &= self.keep.take(self.codes.take(position) + last, axis=0)


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
