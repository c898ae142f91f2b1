"""Object-language syntax: arithmetic terms, formulas, coding, substitution.

Terms are variables, numerals and function symbols applied to terms:
s, +, *, pair, p0 and p1 are built in, and further primitive recursive
symbols (dot membership, code functions, ordinal arithmetic) are
registered where they are defined.  Formulas use ->, forall and =; the
other connectives are parser-level sugar.  Numerals are carried as a
single literal node so that very large (sparse) naturals can appear in
formulas without chains of successors.

The level-indexed languages add four atoms: a truth side with truth
atoms ``T_b t``, and a realisability side with a pole-membership atom
``t in-pole``, falsification atoms ``s F_b t`` and realisation atoms
``s T_b t``.  Levels are ordinal notations; an atom at level b may only
speak about sentence codes whose own levels are strictly below b, which
keeps every evaluation well-founded.  The base language of arithmetic is
the atom-free fragment, which is the level-0 language of either side.

Each formula class's text and code are written down once, in _FORMAT.
godel and ungodel code and decode formulas only, and godel_term and
ungodel_term terms.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import accumulate, islice, repeat
from typing import Callable, Optional, TypeVar, Union

from ._record import record
from .notation import (
    LESS, OrdNotation, OrdParseError, compare, ocode, odecode, parse_ord,
    print_ord,
)
from .vm import Nat, _Layout, pair, vint, vnat, vpair, vunpair


# ---------------------------------------------------------------------------
# Terms

@record
class TVar:
    name: str


@record
class Num:
    # a natural in canonical form (vm.vnat), so record equality is
    # value equality here
    n: Nat


@record
class Fn:
    """A function symbol of FN_ARITY applied to its arguments."""
    name: str
    args: tuple


ATerm = Union[TVar, Num, Fn]

ZERO = Num(0)
ONE = Num(1)


def suc_t(t: ATerm) -> ATerm:
    """The successor of t, with (s n) over a numeral folded to n+1."""
    if isinstance(t, Num) and isinstance(t.n, int):
        return Num(vnat(t.n + 1))
    return Fn("s", (t,))


# function symbols: arity and semantics
FN_ARITY: dict[str, int] = {}
FN_SEMANTICS: dict[str, Callable[..., Nat]] = {}


def register_fn(name: str, arity: int, fn: Callable[..., Nat]) -> None:
    if name in FN_ARITY:
        raise ValueError("function symbol %r already registered" % name)
    FN_ARITY[name] = arity
    FN_SEMANTICS[name] = fn


# the symbols of the language of arithmetic, built in
register_fn("s", 1, lambda n: vnat(vint(n) + 1))
register_fn("+", 2, lambda m, n: vnat(vint(m) + vint(n)))
register_fn("*", 2, lambda m, n: vnat(vint(m) * vint(n)))
register_fn("pair", 2, vpair)
register_fn("p0", 1, lambda p: vunpair(p)[0])
register_fn("p1", 1, lambda p: vunpair(p)[1])


# ---------------------------------------------------------------------------
# Formulas

@record
class Eq:
    l: ATerm
    r: ATerm


@record
class Imp:
    a: "Formula"
    b: "Formula"


@record
class All:
    var: str
    body: "Formula"


@record
class InPole:
    """Atom: the value of t is a pole element."""
    t: ATerm


@record
class Fals:
    """Atom: the value of s falsifies the sentence coded by t, at level."""
    level: OrdNotation
    s: ATerm
    t: ATerm


@record
class Real:
    """Atom: the value of s realises the sentence coded by t, at level."""
    level: OrdNotation
    s: ATerm
    t: ATerm


@record
class Tru:
    """Atom: t codes a true sentence of the language below level."""
    level: OrdNotation
    t: ATerm


Formula = Union[Eq, Imp, All, InPole, Fals, Real, Tru]

# The formula format: each class's text head, code tag and field kinds,
# T a term, F a formula, V a variable name and L a level.  A text is
# (head f1 f2 ...) and a code <tag, <f1, <f2, f3>>>, paired from the
# right; godel, ungodel, print_formula and the reader read it.
_FORMAT = ((Eq, "=", 20, "TT"), (Imp, "imp", 21, "FF"),
           (All, "all", 22, "VF"), (InPole, "pole", 23, "T"),
           (Fals, "fals", 24, "LTT"), (Real, "real", 25, "LTT"),
           (Tru, "tru", 26, "LT"))


def bot() -> Formula:
    return Eq(ZERO, ONE)


def neg(a: Formula) -> Formula:
    return Imp(a, bot())


def conj(a: Formula, b: Formula) -> Formula:
    return Imp(Imp(a, Imp(b, bot())), bot())


def disj(a: Formula, b: Formula) -> Formula:
    return Imp(Imp(a, bot()), b)


def ex(x: str, a: Formula) -> Formula:
    return Imp(All(x, Imp(a, bot())), bot())


# ---------------------------------------------------------------------------
# Free variables and substitution

def term_vars(t: ATerm) -> set:
    if isinstance(t, TVar):
        return {t.name}
    if isinstance(t, Num):
        return set()
    if isinstance(t, Fn):
        out = set()
        for a in t.args:
            out |= term_vars(a)
        return out
    raise TypeError(t)


def free_vars(a: Formula) -> frozenset:
    """The free variables of a.  No node is assigned a field after it is
    built, so an implication's or a universal's set is kept on the node
    as _fv the first time it is asked for: a subformula that many
    formulas share (a TI template's Prog(A) sits in most of its axioms)
    is walked once, not once per formula that contains it.  An atom's
    set is built each time; keeping it would cost as much as building
    it."""
    t = type(a)
    if t is Eq:
        return frozenset(term_vars(a.l) | term_vars(a.r))
    if t is InPole or t is Tru:
        return frozenset(term_vars(a.t))
    if t is Fals or t is Real:
        return frozenset(term_vars(a.s) | term_vars(a.t))
    fv = getattr(a, "_fv", None)
    if fv is None:
        if t is Imp:
            fa, fb = free_vars(a.a), free_vars(a.b)
            # shares a child's set when it equals it
            fv = fa | fb if fa and fb else fa or fb
        elif t is All:
            fv = free_vars(a.body)
            if a.var in fv:
                fv = fv - {a.var}
        else:
            raise TypeError(a)
        a._fv = fv
    return fv


def subst_term(t: ATerm, x: str, s: ATerm) -> ATerm:
    if isinstance(t, TVar):
        return s if t.name == x else t
    if isinstance(t, Num):
        return t
    if isinstance(t, Fn):
        a = t.args
        if len(a) == 1:
            u = subst_term(a[0], x, s)
            return suc_t(u) if t.name == "s" else Fn(t.name, (u,))
        if len(a) == 2:
            return Fn(t.name, (subst_term(a[0], x, s), subst_term(a[1], x, s)))
        return Fn(t.name, tuple([subst_term(u, x, s) for u in a]))
    raise TypeError(t)


def fresh_var(avoid: set) -> str:
    """The first of v1, v2, ... not in avoid.  Every caller binds the
    name it gets, so two calls may share it."""
    n = 1
    while "v%d" % n in avoid:
        n += 1
    return "v%d" % n


def _term_folds(t: ATerm) -> bool:
    tt = type(t)
    if tt is TVar or tt is Num:
        return False
    if tt is Fn:
        for u in t.args:
            if (t.name == "s" and type(u) is Num and isinstance(u.n, int)
                    or _term_folds(u)):
                return True
        return False
    raise TypeError(t)


def _folds(a: Formula) -> bool:
    """Whether a holds a successor of a numeral, (s n), which subst folds
    to the numeral n+1 wherever it rebuilds a term.  Kept on an
    implication or a universal as _fold, as free_vars keeps _fv."""
    t = type(a)
    if t is Eq:
        return _term_folds(a.l) or _term_folds(a.r)
    if t is InPole or t is Tru:
        return _term_folds(a.t)
    if t is Fals or t is Real:
        return _term_folds(a.s) or _term_folds(a.t)
    r = getattr(a, "_fold", None)
    if r is None:
        if t is Imp:
            r = _folds(a.a) or _folds(a.b)
        elif t is All:
            r = _folds(a.body)
        else:
            raise TypeError(a)
        a._fold = r
    return r


def subst(a: Formula, x: str, s: ATerm) -> Formula:
    """Capture-avoiding substitution of term s for free x in a.

    Where it rebuilds a term, (s n) over a numeral n becomes the numeral
    n+1.  An implication or a universal in which x is not free and
    which holds no such (s n) would be rebuilt equal to itself, so it is
    returned as it is, and the copy shares it with its source."""
    t = type(a)
    if (t is Imp or t is All) and x not in free_vars(a) and not _folds(a):
        return a
    if isinstance(a, Eq):
        return Eq(subst_term(a.l, x, s), subst_term(a.r, x, s))
    if isinstance(a, Imp):
        return Imp(subst(a.a, x, s), subst(a.b, x, s))
    if isinstance(a, All):
        if a.var == x:
            return a
        if a.var in term_vars(s) and x in free_vars(a.body):
            y = fresh_var(term_vars(s) | free_vars(a.body))
            renamed = subst(a.body, a.var, TVar(y))
            return All(y, subst(renamed, x, s))
        return All(a.var, subst(a.body, x, s))
    if isinstance(a, InPole):
        return InPole(subst_term(a.t, x, s))
    if isinstance(a, Fals):
        return Fals(a.level, subst_term(a.s, x, s), subst_term(a.t, x, s))
    if isinstance(a, Real):
        return Real(a.level, subst_term(a.s, x, s), subst_term(a.t, x, s))
    if isinstance(a, Tru):
        return Tru(a.level, subst_term(a.t, x, s))
    raise TypeError(a)


# ---------------------------------------------------------------------------
# Levels

TRUTH_SIDE = "truth"
REAL_SIDE = "realisability"


class LevelError(ValueError):
    """A level constraint was violated."""


def _atoms(a: Formula) -> tuple:
    """The atoms of a other than equations, equal ones once.  An
    implication or a universal keeps them as _atoms, as free_vars keeps
    _fv."""
    t = type(a)
    if t is Eq:
        return ()
    if t is InPole or t is Fals or t is Real or t is Tru:
        return (a,)
    r = getattr(a, "_atoms", None)
    if r is None:
        if t is Imp:
            ra, rb = _atoms(a.a), _atoms(a.b)
            r = ra + tuple(x for x in rb if x not in ra) if ra and rb \
                else ra or rb
        elif t is All:
            r = _atoms(a.body)
        else:
            raise TypeError(a)
        a._atoms = r
    return r


def max_level(a: Formula) -> Optional[OrdNotation]:
    """The largest atom level occurring in a, or None when level free."""
    top = None
    for x in _atoms(a):
        if type(x) is not InPole and (
                top is None or compare(top, x.level) == LESS):
            top = x.level
    return top


def in_language(a: Formula, gamma: OrdNotation, side: str) -> bool:
    """Whether a lies in the level-gamma language of the given side.

    The truth side admits Tru atoms only; the realisability side admits
    InPole, Fals and Real atoms only.  Atom-free formulas lie in both.
    All atom levels must be strictly below gamma, so the level-0
    language of either side is the atom-free base language.
    """
    for x in _atoms(a):
        if (type(x) is Tru) != (side == TRUTH_SIDE) or (
                type(x) is not InPole and compare(x.level, gamma) != LESS):
            return False
    return True


def _is_base(a: Formula) -> bool:
    """Whether a is in the base grammar, built from Eq, Imp and All,
    which has no atoms but equations; false for anything that is not a
    formula."""
    try:
        return type(a) is Eq or not _atoms(a)
    except TypeError:
        return False


# ---------------------------------------------------------------------------
# Closed-term evaluation

class OpenTermError(ValueError):
    pass


def eval_term(t: ATerm, env: Optional[dict] = None) -> Nat:
    tt = type(t)
    if tt is Fn:
        fn = FN_SEMANTICS.get(t.name)
        if fn is None:
            raise ValueError("unregistered function symbol %r" % t.name)
        a = t.args
        if len(a) == 1:
            return fn(eval_term(a[0], env))
        if len(a) == 2:
            return fn(eval_term(a[0], env), eval_term(a[1], env))
        return fn(*[eval_term(u, env) for u in a])
    if tt is Num:
        return vnat(t.n)
    if tt is TVar:
        if env and t.name in env:
            return env[t.name]
        raise OpenTermError("unbound variable %s" % t.name)
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Goedel coding

_T_VAR = 0
_T_NUM = 1
# a built-in symbol's code has a tag of its own, not _T_FN and its name
_BUILTIN_TAGS = {"s": 2, "+": 3, "*": 4, "pair": 5, "p0": 6, "p1": 7}
_T_FN = 8
_BUILTIN_NAMES = {tag: name for name, tag in _BUILTIN_TAGS.items()}


# Python refuses to print an int of more than 4300 decimal digits, by
# default, so a numeral at or past this cap is printed over its Cantor
# components, and a code at or past it names no variable
_NUMERAL_CAP = 10 ** 4300
# the longest variable name, in UTF-8 bytes, whose code is below the cap:
# a longer name's code, "." and the name, has at least the cap's 1786
# bytes, and "." is above the cap's first byte
_NAME_BYTES = 1784


def _below_cap(n: Nat) -> Optional[int]:
    """The value of n if it is below _NUMERAL_CAP, else None.  A pair is
    at least each of its components, so no value past the cap is
    expanded."""
    if type(n) is int:
        return n if n < _NUMERAL_CAP else None
    a, b = vunpair(n)
    a = _below_cap(a)
    b = None if a is None else _below_cap(b)
    if b is None:
        return None
    v = pair(a, b)
    return v if v < _NUMERAL_CAP else None


def _name_code(name: str) -> Nat:
    return vnat(int.from_bytes(("." + name).encode(), "big"))


def _name_decode(c: Nat) -> Optional[str]:
    """The variable name c codes, or None when the text it codes is no
    name (_is_name).  A code at or past _NUMERAL_CAP codes none, and is
    refused without expanding it."""
    n = _below_cap(c)
    if n is None:
        return None
    b = n.to_bytes((n.bit_length() + 7) // 8, "big")
    if not b.startswith(b"."):
        return None
    try:
        name = b[1:].decode()
    except UnicodeDecodeError:
        return None
    return name if _is_name(name) else None


def godel_term(t: ATerm) -> Nat:
    if isinstance(t, TVar):
        return vpair(_T_VAR, _name_code(t.name))
    if isinstance(t, Num):
        return vpair(_T_NUM, t.n)
    if isinstance(t, Fn):
        a = t.args
        tag = _BUILTIN_TAGS.get(t.name)
        if tag is not None:
            if len(a) == 1:
                return vpair(tag, godel_term(a[0]))
            return vpair(tag, vpair(godel_term(a[0]), godel_term(a[1])))
        args: Nat = 0
        for u in reversed(a):
            args = vpair(godel_term(u), args)
        return vpair(_T_FN, vpair(_name_code(t.name), vpair(len(a), args)))
    raise TypeError(t)


def godel(a: Formula) -> Nat:
    """The code of the formula a, by _FORMAT."""
    tag, _, layout = _LAYOUT[type(a)]
    code = None
    for name, code_of, _ in layout[::-1]:  # paired from the right
        x = code_of(getattr(a, name))
        code = x if code is None else vpair(x, code)
    return vpair(tag, code)


def ungodel_term(c: Nat) -> Optional[ATerm]:
    tag, rest = vunpair(c)
    if tag == _T_VAR:
        name = _name_decode(rest)
        return TVar(name) if name else None
    if tag == _T_NUM:
        return Num(rest)
    # a tag that is a PV is no built-in's, and is not hashed
    name = _BUILTIN_NAMES.get(tag) if type(tag) is int else None
    if name is not None:
        if FN_ARITY[name] == 1:
            a = ungodel_term(rest)
            return None if a is None else Fn(name, (a,))
        cl, cr = vunpair(rest)
        l, r = ungodel_term(cl), ungodel_term(cr)
        return None if l is None or r is None else Fn(name, (l, r))
    if tag == _T_FN:
        cn, rest2 = vunpair(rest)
        name = _name_decode(cn)
        # a built-in symbol has one code, under its own tag
        if name is None or name not in FN_ARITY or name in _BUILTIN_TAGS:
            return None
        n, args_c = vunpair(rest2)
        if n != FN_ARITY[name] or n > 8:
            return None
        args = []
        for _ in range(n):
            ca, args_c = vunpair(args_c)
            a = ungodel_term(ca)
            if a is None:
                return None
            args.append(a)
        if args_c != 0:
            return None
        return Fn(name, tuple(args))
    return None


def ungodel(c: Nat) -> Optional[Formula]:
    """The formula c codes, by _FORMAT, or None when c codes none.  It
    decodes formulas only: a term's code decodes by ungodel_term."""
    tag, rest = vunpair(c)
    # a tag that is a PV is no formula's, and is not hashed
    if type(tag) is not int or tag not in _CLASS_OF:
        return None
    cls, decoders = _CLASS_OF[tag]
    args = []
    unpaired = len(decoders) - 1  # the last field is the rest itself
    for decode in decoders:
        if unpaired:
            x, rest = vunpair(rest)
            unpaired -= 1
        else:
            x = rest
        x = decode(x)
        if x is None:
            return None
        args.append(x)
    return cls(*args)


def decode_sentence(c: Nat, side: str,
                    below: OrdNotation) -> Optional[Formula]:
    """The sentence of the given side with levels < below coded by c."""
    a = ungodel(c)
    if a is None or free_vars(a) or not in_language(a, below, side):
        return None
    return a


def subt(c: Nat, x: str, s_code: Nat) -> Nat:
    """On codes: |A(x)|, |s|  ->  |A(s)| for a term code |s|."""
    a = ungodel(c)
    if a is None:
        raise ValueError("not a formula code")
    s = ungodel_term(s_code)
    if s is None:
        raise ValueError("not a term code")
    return godel(subst(a, x, s))


def eq_check(cs: Nat, ct: Nat) -> bool:
    """Whether two closed term codes have equal values."""
    s, t = ungodel_term(cs), ungodel_term(ct)
    if s is None or t is None:
        raise ValueError("invalid term code")
    return eval_term(s) == eval_term(t)


# ---------------------------------------------------------------------------
# Explicit refutation and realisation

def explicit_refutation(s: ATerm, a: Formula) -> Formula:
    """The formula expressing "the value of s refutes a"."""
    if isinstance(a, (Eq, InPole)):
        return Imp(a, InPole(s))
    if isinstance(a, Fals):
        return Fals(a.level, s, Fn("memf", (a.s, a.t)))
    if isinstance(a, Real):
        return Fals(a.level, s, Fn("memt", (a.s, a.t)))
    if isinstance(a, Imp):
        return conj(explicit_realisation(Fn("p0", (s,)), a.a),
                    explicit_refutation(Fn("p1", (s,)), a.b))
    if isinstance(a, All):
        inst = subst(a.body, a.var, Fn("p0", (s,)))
        return explicit_refutation(Fn("p1", (s,)), inst)
    if isinstance(a, Tru):
        raise TypeError("truth atoms have no explicit refutation")
    raise TypeError(a)


def explicit_realisation(s: ATerm, a: Formula) -> Formula:
    """The formula expressing "the value of s realises a"."""
    v = fresh_var(term_vars(s) | free_vars(a))
    return All(v, Imp(explicit_refutation(TVar(v), a),
                      InPole(Fn("pair", (s, TVar(v))))))


def _dot_membership(unfold: Callable, s: Nat, y: Nat) -> Nat:
    """The code of unfold(s, A) for the sentence A coded by y; 0 when y
    codes no sentence with an unfolding."""
    a = ungodel(y)
    if a is None or free_vars(a):
        return 0
    try:
        return godel(unfold(Num(s), a))
    except TypeError:
        return 0


# the dot-membership symbols the explicit unfoldings of atoms produce
register_fn("memf", 2, partial(_dot_membership, explicit_refutation))
register_fn("memt", 2, partial(_dot_membership, explicit_realisation))


# ---------------------------------------------------------------------------
# S-expression parser / printer

class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s at offset %d" % (message, pos))
        self.pos = pos


# a token is a bracket or a run of other non-space characters, a word;
# `\s` splits exactly where `str.isspace` does
_WORD = re.compile(r"[^\s()]+")
_TOKEN = re.compile(r"[()]|" + _WORD.pattern)
_CLOSE = "expected ')', found %r"
_T = TypeVar("_T")
# the longest formula, in tokens after its opening bracket, that a read
# shares: a key copies no more tokens than this, so deep nesting stays
# linear.  One formula of the shipped proofs is longer (261 tokens).
_SHARE_SPAN = 256
_DEPTH_STEP = {"(": 1, ")": -1}


class _Tokens(list):
    """The tokens of one read, in reverse.  `depths[i]` is the bracket
    depth after the text's i-th token, and `shared` maps each formula
    text read so far, as the tuple of its tokens after the opening
    bracket in reverse, to the formula built for it."""
    __slots__ = ("depths", "shared")


class _Misread(Exception):
    """`_Misread(message, left)`: a reader error at the token after which
    `left` tokens remain; `_read` turns it into a ParseError at that
    token's offset."""


def _read(text: str, parse: Callable[[_Tokens], _T]) -> _T:
    """Read all of `text` with `parse`, which takes the tokens in reverse,
    so that `pop()` reads the next one and `len()` counts those left.
    Offsets are found again only for an error."""
    toks = _Tokens(_TOKEN.findall(text))
    n = len(toks)
    toks.depths = list(accumulate(map(_DEPTH_STEP.get, toks, repeat(0))))
    toks.shared = {}
    toks.reverse()
    try:
        out = parse(toks)
    except _Misread as exc:
        message, left = exc.args
    except IndexError as exc:
        if toks or exc.args != ("pop from empty list",):
            raise
        raise ParseError("unexpected end of input", len(text)) from None
    except RecursionError:
        if len(toks) == n:
            raise
        message, left = "nesting too deep", len(toks)
    else:
        if not toks:
            return out
        message, left = "trailing input %r" % toks[-1], len(toks) - 1
    pos = next(islice(_TOKEN.finditer(text), n - 1 - left, None)).start()
    raise ParseError(message, pos) from None


# the heads of every formula class and of the sugar
_FORMULA_HEADS = {"not", "and", "or", "ex", "bot"}.union(
    head for _, head, _, _ in _FORMAT)


def _is_name(s: str) -> bool:
    """Whether s is a variable name: one word, no numeral and no formula
    head.  The reader and _name_decode take no other, so a decoded
    formula prints text that reads back."""
    return (s not in _FORMULA_HEADS and not s.isdigit()
            and _WORD.fullmatch(s) is not None)


def _parse_term(toks: list) -> ATerm:
    tok = toks.pop()
    if tok == "(":
        head = toks.pop()
        n = FN_ARITY.get(head)
        # the arguments of a 1- or 2-ary head are read by direct calls,
        # so that a nesting level costs one frame
        if n == 2:
            u = _parse_term(toks)
            t = Fn(head, (u, _parse_term(toks)))
        elif n == 1:
            u = _parse_term(toks)
            t = suc_t(u) if head == "s" else Fn(head, (u,))
        elif n is not None:
            t = Fn(head, tuple(_parse_term(toks) for _ in range(n)))
        else:
            raise _Misread("unknown term head %r" % head, len(toks))
        if (tok := toks.pop()) != ")":
            raise _Misread(_CLOSE % tok, len(toks))
        return t
    if tok.isdigit():
        if not tok.isascii():
            raise _Misread("bad numeral %r" % tok, len(toks))
        try:
            return Num(vnat(int(tok)))
        except ValueError:  # past int's limit on decimal digits
            raise _Misread("numeral of %d digits is too long" % len(tok),
                           len(toks)) from None
    if not _is_name(tok):
        raise _Misread("expected a term, found %r" % tok, len(toks))
    return TVar(_var_name(tok, toks))


def _parse_level(toks: list) -> OrdNotation:
    tok = toks.pop()
    if tok in ("(", ")"):
        raise _Misread("expected an ordinal level", len(toks))
    try:
        return parse_ord(tok)
    except OrdParseError as exc:
        raise _Misread("bad level %r (%s)" % (tok, exc), len(toks))


def _var_name(tok: str, toks: list) -> str:
    """tok, the variable name just read, refused when its code would
    reach _NUMERAL_CAP, where _name_decode names nothing."""
    if len(tok) > _NAME_BYTES // 4 and len(tok.encode()) > _NAME_BYTES:
        raise _Misread("variable name of more than %d bytes" % _NAME_BYTES,
                       len(toks))
    return tok


def _parse_var(toks: list) -> str:
    name = toks.pop()
    if not _is_name(name):
        raise _Misread("expected a variable name", len(toks))
    return _var_name(name, toks)


def _parse_formula(toks: _Tokens) -> Formula:
    tok = toks.pop()
    if tok != "(":
        raise _Misread("expected a formula, found %r" % tok, len(toks))
    # a formula text read before in this read gives the formula built
    # then; its closing bracket is the first token after i at the depth
    # before i, found at C speed
    left, depths = len(toks), toks.depths
    i = len(depths) - 1 - left
    try:
        m = depths.index(depths[i] - 1, i, i + _SHARE_SPAN) - i
    except ValueError:  # unbalanced, or longer than a shared formula
        key = None
    else:
        key = tuple(toks[left - m:left])
        f = toks.shared.get(key)
        if f is not None:
            del toks[left - m:]
            return f
    head = toks.pop()
    form = _CLASS_OF.get(head)
    if form is not None:
        cls, readers = form
        args = []
        for read in readers:
            args.append(read(toks))
        f: Formula = cls(*args)
    elif head == "not":
        f = neg(_parse_formula(toks))
    elif head == "and":
        f = conj(_parse_formula(toks), _parse_formula(toks))
    elif head == "or":
        f = disj(_parse_formula(toks), _parse_formula(toks))
    elif head == "ex":
        f = ex(_parse_var(toks), _parse_formula(toks))
    elif head == "bot":
        f = bot()
    else:
        raise _Misread("unknown formula head %r" % head, len(toks))
    if (tok := toks.pop()) != ")":
        raise _Misread(_CLOSE % tok, len(toks))
    if key is not None:
        toks.shared[key] = f
    return f


def _parse_base_formula(toks: _Tokens) -> Formula:
    """A formula of the base language, which has no atoms."""
    left = len(toks) - 1
    f = _parse_formula(toks)
    if not _is_base(f):
        raise _Misread("level-indexed atom in a base formula", left)
    return f


def parse_term(text: str) -> ATerm:
    return _read(text, _parse_term)


def parse_formula(text: str) -> Formula:
    return _read(text, _parse_formula)


def parse_base_formula(text: str) -> Formula:
    return _read(text, _parse_base_formula)


def _pair_text(n: Nat) -> str:
    """``(pair a b)`` over the sparse Cantor components of n, each a PV in
    the same form or an int in decimal; it reads back to the value n."""
    if type(n) is int:
        return str(n)
    a, b = vunpair(n)
    return "(pair %s %s)" % (_pair_text(a), _pair_text(b))


def print_term(t: ATerm) -> str:
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, Num):
        v = _below_cap(t.n)
        return str(v) if v is not None else _pair_text(t.n)
    if isinstance(t, Fn):
        a = t.args
        if len(a) == 1:
            return "(%s %s)" % (t.name, print_term(a[0]))
        if len(a) == 2:
            return "(%s %s %s)" % (t.name, print_term(a[0]), print_term(a[1]))
        return "(%s %s)" % (t.name, " ".join([print_term(u) for u in a]))
    raise TypeError(t)


def print_formula(a: Formula) -> str:
    """The text of the formula a, by _FORMAT."""
    _, text, layout = _LAYOUT[type(a)]
    for name, _, text_of in layout:
        text += " " + text_of(getattr(a, name))
    return text + ")"


def _level_text(lvl: OrdNotation) -> str:
    return print_ord(lvl).replace(" ", "")


# ---------------------------------------------------------------------------
# The tables of the formula format, built from _FORMAT

# each field kind's coder, decoder, printer and reader
_KINDS = {"T": (godel_term, ungodel_term, print_term, _parse_term),
          "F": (godel, ungodel, print_formula, _parse_formula),
          "V": (_name_code, _name_decode, str, _parse_var),
          "L": (ocode, odecode, _level_text, _parse_level)}
# class -> (tag, its text up to the fields, ((field name, coder,
# printer), ...)), read by godel and print_formula
_LAYOUT = _Layout({
    cls: (tag, "(" + head,
          tuple((f, _KINDS[k][0], _KINDS[k][2])
                for f, k in zip(cls._fields, kinds, strict=True)))
    for cls, head, tag, kinds in _FORMAT})
# tag -> (class, its fields' decoders), read by ungodel, and head ->
# (class, its fields' readers), read by the reader
_CLASS_OF = {key: (cls, tuple(_KINDS[k][use] for k in kinds))
             for cls, head, tag, kinds in _FORMAT
             for key, use in ((tag, 1), (head, 3))}
