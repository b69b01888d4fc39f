"""Numeric tower of the reference engine: i32/f32 `Number` and 2x3 `Matrix`.

Pins /root/reference/src/algebra.rs:
  - Number = Integer(i32) | Real(f32) with mixed-mode + * / neg
    (algebra.rs:36-92); Int/Int division is Real (algebra.rs:41).
  - Matrix is six f32 components with row-vector multiply
    (algebra.rs:94-148); Display format "(a, b, c, d, e, f)"
    (algebra.rs:97-105) using Rust's f32 Display (shortest round-trip,
    positional notation, no trailing ".0").

All Real arithmetic rounds through IEEE binary32 after every binary
operation, matching Rust f32 (no FMA).
"""

from __future__ import annotations

import math
import struct

_PACK = struct.Struct("<f").pack
_UNPACK = struct.Struct("<f").unpack


def f32(x: float) -> float:
    """Round a Python float to the nearest IEEE binary32 value.

    struct.pack raises on |x| > f32::MAX where a Rust f64->f32 cast (and
    f32 arithmetic) saturates to +/-inf — replicate the saturation."""
    try:
        return _UNPACK(_PACK(x))[0]
    except OverflowError:
        return math.inf if x > 0 else -math.inf


_I32_MIN = -(2**31)
_I32_MAX = 2**31 - 1


def _wrap_i32(v: int) -> int:
    return ((v + 2**31) & 0xFFFFFFFF) - 2**31


class Number:
    """Integer(i32) | Real(f32) — algebra.rs:3-7."""

    __slots__ = ("is_int", "val")

    def __init__(self, is_int: bool, val):
        self.is_int = is_int
        self.val = val

    @staticmethod
    def int(v: int) -> "Number":
        return Number(True, int(v))

    @staticmethod
    def real(v: float) -> "Number":
        return Number(False, f32(v))

    def __eq__(self, other):
        return (
            isinstance(other, Number)
            and self.is_int == other.is_int
            and self.val == other.val
        )

    def __hash__(self):
        return hash((self.is_int, self.val))

    def __repr__(self):
        return f"Number.int({self.val})" if self.is_int else f"Number.real({self.val})"

    # --- arithmetic (algebra.rs:36-92) ---
    def __add__(self, other: "Number") -> "Number":
        if self.is_int and other.is_int:
            # release-mode Rust i32 arithmetic wraps (algebra.rs:68)
            return Number(True, _wrap_i32(self.val + other.val))
        return Number(False, f32(self.as_f32() + other.as_f32()))

    def __mul__(self, other: "Number") -> "Number":
        if self.is_int and other.is_int:
            return Number(True, _wrap_i32(self.val * other.val))
        return Number(False, f32(self.as_f32() * other.as_f32()))

    def __truediv__(self, other: "Number") -> "Number":
        # Int / Int -> Real (algebra.rs:41); f32 division by +/-0 gives
        # a signed infinity (sign of a XOR sign of b), 0/0 -> NaN
        a, b = self.as_f32(), other.as_f32()
        if b == 0.0:
            if a == 0.0:
                return Number(False, math.nan)
            sign = math.copysign(1.0, a) * math.copysign(1.0, b)
            return Number(False, math.copysign(math.inf, sign))
        return Number(False, f32(a / b))

    def __neg__(self) -> "Number":
        if self.is_int:
            return Number(True, _wrap_i32(-self.val))
        return Number(False, -self.val)

    # --- conversions (algebra.rs:9-34) ---
    def as_f32(self) -> float:
        return f32(float(self.val)) if self.is_int else self.val

    def as_usize(self) -> int:
        return self.val if self.is_int else int(self.val)

    def rust_debug(self) -> str:
        """Rust {:?} of Number: Integer(5) / Real(8.9664)."""
        if self.is_int:
            return f"Integer({self.val})"
        return f"Real({rust_f32_debug(self.val)})"


def parse_numeric(text: str) -> Number | None:
    """Reference numeric parse order: i32 then f32 (tokenizer.rs:350-360)."""
    try:
        n = int(text)
        if _I32_MIN <= n <= _I32_MAX:
            return Number(True, n)
    except ValueError:
        pass
    else:
        # out-of-i32-range integers fall through to f32, like Rust's
        # "parse::<i32>() Err -> parse::<f32>()"
        return Number(False, f32(float(text)))
    try:
        f = float(text)
    except ValueError:
        return None
    if math.isinf(f) or math.isnan(f):
        # Rust f32 parse of huge literals gives inf; keep it
        return Number(False, f)
    return Number(False, f32(f))


class Matrix:
    """2x3 affine matrix, f32 components — algebra.rs:94-148."""

    __slots__ = ("a", "b", "c", "d", "e", "f")

    def __init__(self, a=1.0, b=0.0, c=0.0, d=1.0, e=0.0, f=0.0):
        self.a = f32(a)
        self.b = f32(b)
        self.c = f32(c)
        self.d = f32(d)
        self.e = f32(e)
        self.f = f32(f)

    def copy(self) -> "Matrix":
        m = Matrix.__new__(Matrix)
        m.a, m.b, m.c, m.d, m.e, m.f = self.a, self.b, self.c, self.d, self.e, self.f
        return m

    def get_ty(self) -> float:
        return self.f

    def __eq__(self, other):
        return isinstance(other, Matrix) and (
            self.a,
            self.b,
            self.c,
            self.d,
            self.e,
            self.f,
        ) == (other.a, other.b, other.c, other.d, other.e, other.f)

    def __mul__(self, rhs: "Matrix") -> "Matrix":
        # row-vector convention, every op f32-rounded (algebra.rs:136-148)
        m = Matrix.__new__(Matrix)
        m.a = f32(f32(self.a * rhs.a) + f32(self.b * rhs.c))
        m.b = f32(f32(self.a * rhs.b) + f32(self.b * rhs.d))
        m.c = f32(f32(self.c * rhs.a) + f32(self.d * rhs.c))
        m.d = f32(f32(self.c * rhs.b) + f32(self.d * rhs.d))
        m.e = f32(f32(f32(self.e * rhs.a) + f32(self.f * rhs.c)) + rhs.e)
        m.f = f32(f32(f32(self.e * rhs.b) + f32(self.f * rhs.d)) + rhs.f)
        return m

    def rust_display(self) -> str:
        """Rust Display "(a, b, c, d, e, f)" (algebra.rs:97-105)."""
        return "({}, {}, {}, {}, {}, {})".format(
            *(rust_f32_display(v) for v in (self.a, self.b, self.c, self.d, self.e, self.f))
        )


def _shortest_f32_digits(x: float) -> tuple[str, int, int]:
    """Shortest decimal digits that round-trip through f32, ties half-up
    (matching Rust's float formatting, e.g. f32 215.890625 -> "215.89063").

    Returns (digits, exp10, sign) with value = sign * 0.digits * 10**exp10.
    """
    import decimal
    from decimal import Decimal

    if x == 0.0:
        return "0", 1, -1 if math.copysign(1.0, x) < 0 else 1
    sign = -1 if x < 0 else 1
    ax = abs(x)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(ax)  # exact (f32 value held exactly in binary64/Decimal)
        adj = d.adjusted()
        for prec in range(1, 18):
            try:
                q = d.quantize(Decimal(1).scaleb(adj - prec + 1), rounding=decimal.ROUND_HALF_UP)
            except decimal.InvalidOperation:
                continue
            if f32(float(q)) == ax:
                dt = q.as_tuple()
                digits = "".join(map(str, dt.digits)).rstrip("0") or "0"
                exp10 = dt.exponent + len(dt.digits)
                return digits, exp10, sign
        # fall back to repr (always round-trips)
        dt = Decimal(repr(ax)).as_tuple()
        digits = "".join(map(str, dt.digits)).rstrip("0") or "0"
        exp10 = dt.exponent + len(dt.digits)
        return digits, exp10, sign


def _render_positional(digits: str, exp10: int, sign: int, always_frac: bool) -> str:
    """Positional (non-scientific) rendering like Rust's float Display/Debug."""
    neg = "-" if sign < 0 else ""
    if digits == "0":
        return neg + ("0.0" if always_frac else "0")
    if exp10 <= 0:
        s = neg + "0." + "0" * (-exp10) + digits
    elif exp10 >= len(digits):
        s = neg + digits + "0" * (exp10 - len(digits))
        if always_frac:
            s += ".0"
    else:
        s = neg + digits[:exp10] + "." + digits[exp10:]
    return s


def rust_f32_display(x: float) -> str:
    """Rust `{}` of an f32: shortest round-trip, positional, no ".0"."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    d, e, s = _shortest_f32_digits(x)
    return _render_positional(d, e, s, always_frac=False)


def rust_f32_debug(x: float) -> str:
    """Rust `{:?}` of an f32: positional with ".0" for integral values
    inside the exponent window, scientific "d.ddde±e" outside it
    (observed thresholds: positional iff -4 <= adjusted_exp <= 15)."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    d, e, s = _shortest_f32_digits(x)
    if d == "0" or -3 <= e <= 16:
        return _render_positional(d, e, s, always_frac=True)
    neg = "-" if s < 0 else ""
    mant = d[0] + ("." + d[1:] if len(d) > 1 else "")
    return f"{neg}{mant}e{e - 1}"


_DEBUG_ESCAPES = {"\n": "\\n", "\r": "\\r", "\t": "\\t", "\\": "\\\\", "\0": "\\0"}


def _escape_debug(ch: str, quote: str) -> str:
    """One char of Rust's escape_debug inside `quote`-delimited Debug
    output: the quote itself is backslashed, the other one is not."""
    if ch == quote:
        return "\\" + ch
    esc = _DEBUG_ESCAPES.get(ch)
    if esc is not None:
        return esc
    o = ord(ch)
    if 0x20 <= o < 0x7F:
        return ch
    if o < 0x20 or o == 0x7F or not _is_printable_unicode(ch):
        return f"\\u{{{o:x}}}"
    return ch


def rust_char_debug(ch: str) -> str:
    """Rust `{:?}` of a char: '<escaped>' via char::escape_debug rules."""
    return "'" + _escape_debug(ch, "'") + "'"


def _is_printable_unicode(ch: str) -> bool:
    # Rust's char::escape_debug escapes (a) non-printable chars — same
    # definition as Python's str.isprintable(): Zs except ASCII space,
    # Zl/Zp, all C* — and (b) grapheme-extending chars (Mn/Me; spacing
    # marks Mc are NOT escaped). Differentially validated against the
    # reference toolchain's escape_debug over the BMP + supplementary
    # samples; residual mismatches are Unicode-table version skew on
    # recently-assigned codepoints.
    import unicodedata

    if not ch.isprintable():
        return False
    cat = unicodedata.category(ch)
    if cat in ("Mn", "Me"):
        return False
    return ord(ch) not in _OTHER_GRAPHEME_EXTEND_MC


# the Mc members of Other_Grapheme_Extend (Rust escapes these too);
# enumerated differentially against the reference toolchain
_OTHER_GRAPHEME_EXTEND_MC = frozenset(
    [
        0x09BE, 0x09D7, 0x0B3E, 0x0B57, 0x0BBE, 0x0BD7, 0x0CC0, 0x0CC2,
        0x0CC7, 0x0CC8, 0x0CCA, 0x0CCB, 0x0CD5, 0x0CD6, 0x0D3E, 0x0D57,
        0x0DCF, 0x0DDF, 0x1715, 0x1734, 0x1B35, 0x1B3B, 0x1B3D, 0x1B43,
        0x1B44, 0x1BAA, 0x1BF2, 0x1BF3, 0x302E, 0x302F, 0xA953, 0xA9C0,
        0x111C0, 0x11235, 0x1133E, 0x1134D, 0x11357, 0x114B0, 0x114BD,
        0x115AF, 0x116B6, 0x11930, 0x1193D, 0x16FF0, 0x16FF1, 0x1D165,
        0x1D166, 0x1D16D, 0x1D16E, 0x1D16F, 0x1D170, 0x1D171, 0x1D172,
    ]
)


def rust_str_debug(s: str) -> str:
    """Rust `{:?}` of a String: "<escaped>" via str::escape_debug rules."""
    return '"' + "".join(_escape_debug(ch, '"') for ch in s) + '"'
