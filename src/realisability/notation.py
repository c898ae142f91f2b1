"""Ordinal notations below the first fixed point beyond epsilon-0: normal
forms, comparison, addition, omega powers, fundamental sequences, codes
and text.

Notations are Cantor normal forms whose exponents may be epsilon atoms
with epsilon-free index.  Notation codes are naturals, so ordinal levels
can appear inside formulas and their codes.
"""

from __future__ import annotations

from typing import Optional, Union

from ._record import record
from .vm import Nat, vle, vpair, vunpair

# ---------------------------------------------------------------------------
# Notations

@record(frozen=True)
class ZeroO:
    pass


@record(frozen=True)
class Eps:
    """The epsilon number indexed by an epsilon-free notation; appears
    only in exponent position (epsilon_a = omega^{epsilon_a})."""
    sub: "OrdNotation"


@record(frozen=True)
class CnfSum:
    terms: tuple  # ((exponent, coefficient), ...), exponents decreasing


OrdNotation = Union[ZeroO, CnfSum, Eps]

O_ZERO = ZeroO()

LESS, EQUAL, GREATER = "less", "equal", "greater"


def _has_eps(a: OrdNotation) -> bool:
    if isinstance(a, ZeroO):
        return False
    if isinstance(a, Eps):
        return True
    return any(_has_eps(e) for e, _c in a.terms)


def _as_exp(a: OrdNotation):
    """Canonical exponent form of a value: an epsilon value appears in
    exponent position as its bare atom."""
    if isinstance(a, CnfSum) and len(a.terms) == 1 \
            and isinstance(a.terms[0][0], Eps) and a.terms[0][1] == 1:
        return a.terms[0][0]
    return a


def onat(n: int) -> OrdNotation:
    if n < 0:
        raise ValueError("naturals only")
    if n == 0:
        return O_ZERO
    return CnfSum(((O_ZERO, n),))


def eps(sub: OrdNotation) -> OrdNotation:
    """The value epsilon_sub, as the normal form omega^{epsilon_sub}."""
    if _has_eps(sub):
        raise ValueError("epsilon indices must be epsilon-free")
    return CnfSum(((Eps(sub), 1),))


def omega() -> OrdNotation:
    return CnfSum(((onat(1), 1),))


def is_normal(a: OrdNotation) -> bool:
    if isinstance(a, ZeroO):
        return True
    if isinstance(a, Eps):
        return False  # epsilon atoms live in exponent position only
    if not a.terms:
        return False
    for e, c in a.terms:
        if c < 1:
            return False
        if isinstance(e, Eps):
            if _has_eps(e.sub) or not is_normal(e.sub):
                return False
        elif not is_normal(e) or _as_exp(e) is not e:
            return False  # epsilon-value exponents must be bare atoms
    for (e1, _c1), (e2, _c2) in zip(a.terms, a.terms[1:]):
        if _cmp_exp(e1, e2) != GREATER:
            return False
    return True


def _cmp_exp(e1, e2) -> str:
    if e1 == e2:
        return EQUAL
    if isinstance(e1, Eps) and isinstance(e2, Eps):
        return compare(e1.sub, e2.sub)
    if isinstance(e1, Eps):
        return compare(CnfSum(((e1, 1),)), e2)
    if isinstance(e2, Eps):
        r = compare(CnfSum(((e2, 1),)), e1)
        return LESS if r == GREATER else GREATER if r == LESS else EQUAL
    return compare(e1, e2)


def compare(a: OrdNotation, b: OrdNotation) -> str:
    """Strict total order on notations (ordinal less-than)."""
    if isinstance(a, Eps):
        a = CnfSum(((a, 1),))
    if isinstance(b, Eps):
        b = CnfSum(((b, 1),))
    if isinstance(a, ZeroO):
        return EQUAL if isinstance(b, ZeroO) else LESS
    if isinstance(b, ZeroO):
        return GREATER
    for (e1, c1), (e2, c2) in zip(a.terms, b.terms):
        r = _cmp_exp(e1, e2)
        if r != EQUAL:
            return r
        if c1 != c2:
            return LESS if c1 < c2 else GREATER
    if len(a.terms) != len(b.terms):
        return LESS if len(a.terms) < len(b.terms) else GREATER
    return EQUAL


def add(a: OrdNotation, b: OrdNotation) -> OrdNotation:
    if isinstance(b, ZeroO):
        return a
    if isinstance(a, ZeroO):
        return b
    lead = b.terms[0][0]
    kept = [t for t in a.terms if _cmp_exp(t[0], lead) == GREATER]
    merged = list(b.terms)
    same = [t for t in a.terms if _cmp_exp(t[0], lead) == EQUAL]
    if same:
        merged[0] = (lead, same[0][1] + merged[0][1])
    return CnfSum(tuple(kept) + tuple(merged))


def omega_pow(a: OrdNotation) -> OrdNotation:
    """omega^a, normalised through the epsilon fixed points."""
    if _as_exp(a) is not a:
        return a  # omega^{epsilon_i} = epsilon_i
    if isinstance(a, Eps):
        raise ValueError("epsilon atom is not a notation value")
    return CnfSum(((a, 1),))


@record(frozen=True)
class ZeroC:
    pass


@record(frozen=True)
class SucC:
    pred: OrdNotation


@record(frozen=True)
class LimC:
    pass


OrdClass = Union[ZeroC, SucC, LimC]


def classify(a: OrdNotation) -> OrdClass:
    if isinstance(a, ZeroO):
        return ZeroC()
    e, c = a.terms[-1]
    if isinstance(e, ZeroO):
        head = a.terms[:-1]
        if c > 1:
            return SucC(CnfSum(head + ((e, c - 1),)))
        return SucC(CnfSum(head) if head else O_ZERO)
    return LimC()


def omega_tower(base: OrdNotation, n: int) -> OrdNotation:
    """omega_n(base): iterate omega_pow n times starting from base."""
    out = base
    for _ in range(n):
        out = omega_pow(out)
    return out


def fundseq(a: OrdNotation, n: int) -> OrdNotation:
    """The n-th member of the canonical sequence converging to limit a."""
    if not isinstance(classify(a), LimC):
        raise ValueError("fundamental sequences exist for limits only")
    head = a.terms[:-1]
    e, c = a.terms[-1]
    if c > 1:
        head = head + ((e, c - 1),)
    prefix = CnfSum(head) if head else O_ZERO
    return add(prefix, _fundseq_power(e, n))


def _towers(a: OrdNotation) -> bool:
    """Whether the n-th member of limit a's sequence holds a tower of n
    exponents: a's last exponent, followed through limit exponents, is
    an epsilon atom whose index is 0 or a successor."""
    e = a.terms[-1][0]
    while type(e) is CnfSum:
        e = e.terms[-1][0]
    return type(e) is Eps and not isinstance(classify(e.sub), LimC)


def _fundseq_power(e, n: int) -> OrdNotation:
    """[omega^e]_n, where e may be an epsilon atom (the summand is then
    the epsilon number itself)."""
    if isinstance(e, Eps):
        a = e.sub
        k = classify(a)
        if isinstance(k, ZeroC):
            return omega_tower(onat(1), n)
        if isinstance(k, SucC):
            return omega_tower(add(eps(k.pred), onat(1)), n)
        return eps(fundseq(a, n))
    k = classify(e)
    if isinstance(k, SucC):
        if n == 0:
            return O_ZERO
        return CnfSum(((_as_exp(k.pred), n),))
    if isinstance(k, LimC):
        return omega_pow(fundseq(e, n))
    raise ValueError("omega^0 is not a limit")


# ---------------------------------------------------------------------------
# Codes

def ocode(a: OrdNotation) -> Nat:
    if isinstance(a, ZeroO):
        return 0
    if isinstance(a, Eps):
        return vpair(2, ocode(a.sub))
    lst: Nat = 0
    for e, c in reversed(a.terms):
        lst = vpair(vpair(ocode(e), c), lst)
    return vpair(1, lst)


def odecode(v: Nat) -> Optional[OrdNotation]:
    a = _odecode(v)
    if a is None or isinstance(a, Eps) or not is_normal(a):
        return None
    return a


def _odecode(v: Nat):
    if v == 0:
        return O_ZERO
    tag, rest = vunpair(v)
    if tag == 2:
        sub = _odecode(rest)
        if sub is None or isinstance(sub, Eps):
            return None
        return Eps(sub)
    if tag != 1:
        return None
    terms = []
    guard = 0
    while rest != 0:
        guard += 1
        if guard > 64:
            return None
        tc, rest = vunpair(rest)
        ec, c = vunpair(tc)
        e = _odecode(ec)
        if e is None or not vle(c, 1 << 30) or c < 1:
            return None
        terms.append((e, c))
    if not terms:
        return None
    return CnfSum(tuple(terms))


# ---------------------------------------------------------------------------
# Text format: 0, w^a*k + ..., e[a]

def print_ord(a: OrdNotation) -> str:
    parts: list = []
    _print_ord(a, parts, {})
    return "".join(parts)


def _print_ord(a: OrdNotation, parts: list, done: dict) -> bool:
    """Append the text of a to parts; return whether it holds a + or a *,
    which an exponent is bracketed for.  A node met again (done is keyed
    by id) copies its first parts, so the time is linear in the output."""
    if id(a) in done:
        start, end, ops = done[id(a)]
        parts.extend(parts[start:end])
        return ops
    start, ops = len(parts), False
    if type(a) is ZeroO:
        parts.append("0")
    elif type(a) is Eps:
        parts.append("e[")
        ops = _print_ord(a.sub, parts, done)
        parts.append("]")
    else:
        ops = len(a.terms) > 1
        for i, (e, c) in enumerate(a.terms):
            parts.append(" + " if i else "")
            if type(e) is ZeroO:
                parts.append(str(c))
                continue
            if type(e) is Eps:
                ops |= _print_ord(e, parts, done)
            elif e.terms == ((O_ZERO, 1),):  # w^1 is printed w
                parts.append("w")
            else:
                parts += ("w^", "")
                slot = len(parts) - 1
                if _print_ord(e, parts, done):
                    parts[slot] = "("
                    parts.append(")")
                    ops = True
            if c != 1:
                parts.append("*%d" % c)
                ops = True
    done[id(a)] = (start, len(parts), ops)
    return ops


class OrdParseError(ValueError):
    pass


def _numeral(text: str) -> Optional[int]:
    """The natural an ASCII decimal numeral names, or None when text is
    not one."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # past int's limit on decimal digits
        raise OrdParseError("numeral of %d digits is too long"
                            % len(text)) from None


# the deepest nesting of exponents and epsilon indices a notation text
# may have.  The notation walks recurse once per level: Python 3.10.13
# answered `realis ord cmp` at 6,000 levels and crashed (SIGSEGV) at
# 7,000, and every `ord` command at this bound answers on 3.10 and 3.11.
NESTING_MAX = 4000


def parse_ord(text: str) -> OrdNotation:
    """The notation text names, in the format ``print_ord`` writes.  A
    text nested deeper than NESTING_MAX is an OrdParseError."""
    return _OrdReader(text).parse(0, len(text), 0)


class _OrdReader:
    """Parses index ranges of one text.  One pass over the text matches
    its brackets and finds, for each position, the next ``+`` or ``*`` at
    that position's bracket depth, so splitting a range never scans what
    is nested in it and nothing is copied but numerals and error text: a
    notation nested n deep parses in time linear in n.  ``(`` and ``[``
    match either closing bracket; the summand rules tell them apart."""

    def __init__(self, text: str):
        self.text = text
        n = len(text)
        self.close: dict[int, int] = {}  # opening bracket -> its match
        # sep[i]: the first + or * at or after i at i's depth, or n when
        # the bracket around i closes first
        self.sep = sep = [n] * (n + 1)
        nxt, outer = n, []  # outer: (closing bracket, nxt) of each level
        for i in range(n - 1, -1, -1):
            ch = text[i]
            if ch in ")]":
                outer.append((i, nxt))
                nxt = n
            elif ch in "([":
                if not outer:
                    raise OrdParseError("unbalanced brackets in %r" % text)
                self.close[i], nxt = outer.pop()
            elif ch in "+*":
                nxt = i
            sep[i] = nxt
        if outer:
            raise OrdParseError("unbalanced brackets in %r" % text)

    def _split(self, lo: int, hi: int, c: str) -> list:
        """The ranges between the c's at depth zero of [lo, hi)."""
        text, sep, parts = self.text, self.sep, []
        p = sep[lo]
        while p < hi:
            if text[p] == c:
                parts.append((lo, p))
                lo = p + 1
            p = sep[p + 1]
        parts.append((lo, hi))
        return parts

    def _strip(self, lo: int, hi: int) -> tuple:
        """[lo, hi) without the whitespace ``str.strip`` removes."""
        text = self.text
        while lo < hi and text[lo].isspace():
            lo += 1
        while hi > lo and text[hi - 1].isspace():
            hi -= 1
        return lo, hi

    def parse(self, lo: int, hi: int, depth: int) -> OrdNotation:
        """The notation text[lo:hi] names, nested in `depth` exponents
        and epsilon indices; its brackets are balanced."""
        out = O_ZERO
        for a, b in self._split(lo, hi, "+"):
            a, b = self._strip(a, b)
            if a == b:
                raise OrdParseError("empty summand in %r"
                                    % self.text[lo:hi])
            out = add(out, self._summand(a, b, depth))
        return out

    def _inside(self, lo: int, hi: int, depth: int) -> OrdNotation:
        """The notation between the brackets at lo - 1 and hi."""
        if self.close[lo - 1] != hi:
            raise OrdParseError("unbalanced brackets in %r"
                                % self.text[lo:hi])
        return self.parse(lo, hi, depth)

    def _summand(self, lo: int, hi: int, depth: int) -> OrdNotation:
        text = self.text
        coeff = 1
        factors = self._split(lo, hi, "*")
        if len(factors) > 2:
            raise OrdParseError("too many factors in %r" % text[lo:hi])
        if len(factors) == 2:
            lo, hi = self._strip(*factors[0])
            ctext = text[slice(*self._strip(*factors[1]))]
            coeff = _numeral(ctext) or 0
            if coeff < 1:
                raise OrdParseError("bad coefficient %r" % ctext)
        # a numeral starts with an ASCII digit
        n = _numeral(text[lo:hi]) if lo < hi and text[lo] in "0123456789" \
            else None
        if n is not None:
            if coeff != 1:
                raise OrdParseError("numeral with coefficient")
            return onat(n)
        if hi - lo == 1 and text[lo] == "w":
            return CnfSum(((onat(1), coeff),))
        if depth == NESTING_MAX and text.startswith(("e[", "w^"), lo, hi):
            raise OrdParseError("notation nested more than %d deep"
                                % NESTING_MAX)
        if text.startswith("e[", lo, hi) and text.endswith("]", lo, hi):
            sub = self._inside(lo + 2, hi - 1, depth + 1)
            try:
                base = eps(sub)
            except ValueError as exc:  # an epsilon inside the index
                raise OrdParseError("%s: %r" % (exc, text[lo:hi])) from None
            return CnfSum(((base.terms[0][0], coeff),))
        if text.startswith("w^", lo, hi):
            lo += 2
            if text.startswith("(", lo, hi) and text.endswith(")", lo, hi):
                e_val = self._inside(lo + 1, hi - 1, depth + 1)
            else:
                e_val = self.parse(lo, hi, depth + 1)
            p = omega_pow(e_val)
            return CnfSum(((p.terms[0][0], coeff),))
        raise OrdParseError("cannot parse summand %r" % text[lo:hi])
