"""Normal-ordering term rewriting over left/right ladder superoperators.

Wave functions are operators, so every superoperator is a word in two
commuting families of generators acting on a state psi:

    aL[m] psi  = a_m psi        aL+[m] psi = a+_m psi      (left family)
    aR[m] psi  = psi a_m        aR+[m] psi = psi a+_m      (right family)

with [aL[m], aL+[m']] = delta, [aR[m], aR+[m']] = -delta, families commuting.
Coefficients are exact sympy expressions in the left radius ``r``, the right
radius ``r_R`` and the length scale ``lam`` (plus opaque ``U(...)`` atoms for
central potentials).  Moving a coefficient left through a generator shifts
its radius argument:

    aL+ f(r)   = f(r - lam)  aL+        aL f(r)   = f(r + lam)  aL
    aR+ f(r_R) = f(r_R + lam) aR+       aR f(r_R) = f(r_R - lam) aR

The algebra is not free: sum_m aL+[m] aL[m] equals multiplication by
r/lam - 1 and sum_m aR+[m] aR[m] equals r_R/lam + 1.  The canonical form
therefore eliminates diagonal mode-2 pairs through these relations; the
surviving words are linearly independent, so an identity is true iff its
normal form is literally zero (exact arithmetic, no tolerance).

Normal ordering is one memoized rewrite per bare word, ``_normal_word``,
which returns ``(factors, word)`` pairs; a term folds its coefficient
through the factors in rewrite order.

On charge-zero states the left and right radii agree block-wise;
:meth:`AlgebraExpr.kappa_reduce` folds ``r_R`` into ``r`` accordingly.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import sympy
from sympy import QQ_I, I as sI
from sympy.core.function import AppliedUndef
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyRing

from .operators import SuperOp

__all__ = [
    "R", "RR", "LAM", "UFUN",
    "Gen", "AlgebraExpr",
    "aL", "aL_dag", "aR", "aR_dag", "one", "coeff",
    "expr_to_text", "expr_from_text",
    "to_superop",
]

#: left radius, right radius, length scale (exact symbols)
R, RR, LAM = sympy.symbols("r r_R lam", positive=True)
#: opaque central potential for symbolic acceleration work
UFUN = sympy.Function("U")

# A generator is (family, dagger, mode): family "a" = left, "b" = right.
Gen = Tuple[str, bool, int]

_FAM_ORD = {"a": 0, "b": 1}


def _gen_key(g: Gen):
    fam, dag, mode = g
    return (_FAM_ORD[fam], 0 if dag else 1, mode)


@functools.lru_cache(maxsize=None)
def _word_shifts(word: Tuple[Gen, ...]) -> Tuple[int, int]:
    """Radius shifts (da, db) of a coefficient moved left through ``word``;
    the word's charge shift (creations minus annihilations) is db - da."""
    da = sum(-1 if dag else 1 for fam, dag, _mode in word if fam == "a")
    db = sum(1 if dag else -1 for fam, dag, _mode in word if fam == "b")
    return da, db


#: number relation aX+[2] aX[2] = number(s) - aX+[1] aX[1], with the number
#: shifted past the s daggered same-family generators left of the pair
_NUMBER = {"a": lambda s: (R - s * LAM) / LAM - 1,
           "b": lambda s: (RR + s * LAM) / LAM + 1}


@functools.lru_cache(maxsize=None)
def _normal_word(w: Tuple[Gen, ...]):
    """``(factors, word)`` pairs with c * w = sum of (c * f1 * f2 ...) * word.

    Swaps the first out-of-order adjacent pair; an undaggered generator moving
    right past a daggered one of its family and mode leaves a delta term (+1
    left family, -1 right).  A sorted word with a diagonal mode-2 pair is
    rewritten by the number relation."""
    for i in range(len(w) - 1):
        g1, g2 = w[i], w[i + 1]
        if _gen_key(g1) > _gen_key(g2):
            out = _normal_word(w[:i] + (g2, g1) + w[i + 2:])
            if g1[0] == g2[0] and g1[2] == g2[2] and not g1[1] and g2[1]:
                delta = 1 if g1[0] == "a" else -1
                out += tuple(((delta,) + f, v)
                             for f, v in _normal_word(w[:i] + w[i + 2:]))
            return out
    for fam in "ab":
        up, down = (fam, True, 2), (fam, False, 2)
        if up in w and down in w:
            i, j = w.index(up), w.index(down)
            rest = w[:i] + w[i + 1:j] + w[j + 1:]
            s = sum(1 for g in w if g[0] == fam and g[1]) - 1
            ones = tuple(sorted(rest + ((fam, True, 1), (fam, False, 1)), key=_gen_key))
            return tuple(((_NUMBER[fam](s),) + f, v) for f, v in _normal_word(rest)) \
                + tuple(((-1,) + f, v) for f, v in _normal_word(ones))
    return (((), w),)


# Coefficient rewrites are pure functions of the sympy expression, and the
# proofs meet the same few dozen coefficients hundreds of times.
@functools.lru_cache(maxsize=None)
def _shifted(c: sympy.Expr, da: int, db: int) -> sympy.Expr:
    return c.xreplace({R: R + LAM * da, RR: RR + LAM * db})


@functools.lru_cache(maxsize=None)
def _fraction(e: sympy.Expr, ring: PolyRing):
    """``e`` as (numerator, {denominator factor: power}) over ``ring``: a sum
    goes over the lcm of its factor powers, a product adds them, an integer
    power raises them.  Raises ValueError on what the ring cannot hold."""
    if e in ring.symbols or e.is_Rational or e is sI:
        return ring.from_expr(e), {}
    if e.is_Add or e.is_Mul:
        parts = [_fraction(a, ring) for a in e.args]
        den = {f: (sum if e.is_Mul else max)(d.get(f, 0) for _n, d in parts)
               for _n, d in parts for f in d}
        if e.is_Mul:
            return math.prod(n for n, _d in parts), den
        return sum((math.prod((f**(k - d.get(f, 0)) for f, k in den.items()), start=n)
                    for n, d in parts), ring.zero), den
    if e.is_Pow and e.exp.is_Integer:
        (n, d), k = _fraction(e.base, ring), int(e.exp)
        if k >= 0:
            return n**k, {f: j * k for f, j in d.items()}
        if not d:
            return ring.one, {n: -k}
    raise ValueError(f"not a fraction over QQ_I: {e}")


@functools.lru_cache(maxsize=None)
def _canonical_coeff(c: sympy.Expr) -> sympy.Expr:
    """``sympy.cancel(sympy.together(c))``: ``c`` read into QQ_I[gens] (its
    symbols and expanded ``U(...)`` atoms, in ``sring``'s order) by
    ``_fraction`` and reduced by ``PolyElement.cancel``, where ``sympy.cancel``
    ends.  The gens are algebraically independent, so the result is 0 exactly
    when ``c`` is.  What the reader refuses (floats, other numbers, other
    functions, non-integer powers) takes the ``cancel(together(c))`` path."""
    gens = c.free_symbols | {u.expand() for u in c.atoms(AppliedUndef)}
    ring = PolyRing(_sort_gens(gens), QQ_I)
    try:
        num, den = _fraction(c, ring)
    except ValueError:
        try:
            return sympy.cancel(sympy.together(c))
        except sympy.PolynomialError:
            return sympy.simplify(c)
    p, q = num.cancel(math.prod((f**k for f, k in den.items()), start=ring.one))
    return p.as_expr() / q.as_expr()


@dataclass
class AlgebraExpr:
    """A finite sum of (coefficient x generator word) terms.

    ``terms`` maps word tuples to sympy coefficients, coefficients always
    standing to the left of their word.  Construction helpers: :func:`aL`,
    :func:`aL_dag`, :func:`aR`, :func:`aR_dag`, :func:`coeff`, :func:`one`.
    """

    terms: Dict[Tuple[Gen, ...], sympy.Expr] = field(default_factory=dict)
    is_normal: bool = False

    # -- construction -----------------------------------------------------

    @classmethod
    def from_term(cls, c, word: Tuple[Gen, ...] = ()) -> "AlgebraExpr":
        return cls(terms={tuple(word): sympy.sympify(c)})

    def _accumulate(self, word, c):
        if word in self.terms:
            self.terms[word] = self.terms[word] + c
        else:
            self.terms[word] = c

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "AlgebraExpr") -> "AlgebraExpr":
        out = AlgebraExpr(terms=dict(self.terms))
        for w, c in other.terms.items():
            out._accumulate(w, c)
        return out

    def __sub__(self, other: "AlgebraExpr") -> "AlgebraExpr":
        return self + (-1) * other

    def __mul__(self, other) -> "AlgebraExpr":
        if not isinstance(other, AlgebraExpr):
            c = sympy.sympify(other)
            return AlgebraExpr(terms={w: cc * c for w, cc in self.terms.items()})
        out = AlgebraExpr()
        for w1, c1 in self.terms.items():
            da, db = _word_shifts(w1)
            for w2, c2 in other.terms.items():  # c2 moves left through w1
                c2 = _shifted(c2, da, db) if da or db else c2
                out._accumulate(w1 + w2, c1 * c2)
        return out

    def __rmul__(self, other) -> "AlgebraExpr":
        c = sympy.sympify(other)
        return AlgebraExpr(terms={w: c * cc for w, cc in self.terms.items()})

    def commutator(self, other: "AlgebraExpr") -> "AlgebraExpr":
        return self * other - other * self

    # -- normal ordering ----------------------------------------------------

    def _reduced(self, kappa: bool) -> "AlgebraExpr":
        """One pass: each word rewritten (memoized ``_normal_word``), each term's
        coefficient multiplied by its factors in rewrite order, like words summed,
        r_R = r - lam * s substituted if ``kappa`` (s the word's charge shift),
        each coefficient canonicalized once and the zero ones dropped."""
        out = AlgebraExpr()
        for w, c in self.terms.items():
            for factors, v in _normal_word(w):
                out._accumulate(v, functools.reduce(operator.mul, factors, c))
        clean = {}
        for w, c in out.terms.items():
            da, db = _word_shifts(w)
            clean[w] = _canonical_coeff(c.xreplace({RR: R - LAM * (db - da)}) if kappa else c)
        return AlgebraExpr(terms={w: c for w, c in clean.items() if c != 0},
                           is_normal=True)

    def normal(self) -> "AlgebraExpr":
        """Canonical form: per family daggered-left, modes ascending, left
        family before right family, diagonal mode-2 pairs eliminated, like
        terms merged with canonical rational coefficients."""
        return self if self.is_normal else self._reduced(kappa=False)

    # -- charge bookkeeping --------------------------------------------------

    def kappa_reduce(self, allow_mixed: bool = False) -> "AlgebraExpr":
        """Identify the right radius with the left one, as valid on charge-zero
        states: a normal-ordered term with word charge shift s (creation minus
        annihilation count) satisfies r_R = r - lam * s there.  A result with
        mixed shifts is refused unless annotated with ``allow_mixed``."""
        out = self._reduced(kappa=True)
        shifts = {db - da for da, db in map(_word_shifts, out.terms)}
        if len(shifts) > 1 and not allow_mixed:
            raise ValueError(f"mixed charge shifts {sorted(shifts)}; "
                             "pass allow_mixed=True to reduce sector-wise")
        return out

    # -- inspection -----------------------------------------------------------

    def sorted_terms(self):
        def key(item):
            w, _c = item
            return (len(w), tuple(_gen_key(g) for g in w))
        return sorted(self.terms.items(), key=key)


# -- builders ----------------------------------------------------------------

def aL(mode: int) -> AlgebraExpr:
    """Left multiplication by a_mode."""
    return AlgebraExpr.from_term(1, (("a", False, mode),))


def aL_dag(mode: int) -> AlgebraExpr:
    """Left multiplication by a+_mode."""
    return AlgebraExpr.from_term(1, (("a", True, mode),))


def aR(mode: int) -> AlgebraExpr:
    """Right multiplication by a_mode."""
    return AlgebraExpr.from_term(1, (("b", False, mode),))


def aR_dag(mode: int) -> AlgebraExpr:
    """Right multiplication by a+_mode."""
    return AlgebraExpr.from_term(1, (("b", True, mode),))


def one() -> AlgebraExpr:
    return AlgebraExpr.from_term(1, ())


def coeff(c) -> AlgebraExpr:
    """Multiplication by a radial coefficient (applied after the word)."""
    return AlgebraExpr.from_term(sympy.sympify(c), ())


# -- text serialization --------------------------------------------------------

_GEN_TEXT = {("a", True): "aL+", ("a", False): "aL",
             ("b", True): "aR+", ("b", False): "aR"}
_GEN_RE = re.compile(r"^(aL|aR)(\+?)\[([12])\]$")
_TERM_RE = re.compile(r"\((.*?)\) \* (\S+)")


def expr_to_text(e: AlgebraExpr) -> str:
    """Grammar: term ``(coeff) * aL+[1]*aR[2]``, terms joined by `` + ``.

    Coefficients are sympy-parsable strings in ``r``, ``r_R``, ``lam`` (and
    ``U(...)``); the empty word prints as ``1``.
    """
    parts = []
    for w, c in e.sorted_terms():
        gens = "*".join(f"{_GEN_TEXT[(fam, dag)]}[{mode}]" for fam, dag, mode in w)
        parts.append(f"({sympy.sstr(c)}) * {gens or '1'}")
    return " + ".join(parts) if parts else "(0) * 1"


def expr_from_text(text: str) -> AlgebraExpr:
    """Parse the grammar written by :func:`expr_to_text`.

    ``sstr`` never prints `` * `` inside a coefficient, so each term is the
    shortest ``(coeff) * word``; the terms must rebuild the text exactly.
    """
    locs = {"r": R, "r_R": RR, "lam": LAM, "U": UFUN, "I": sI}
    text = text.strip()
    terms = _TERM_RE.findall(text)
    if " + ".join(f"({c}) * {w}" for c, w in terms) != text:
        raise ValueError(f"malformed expression text: {text!r}")
    out = AlgebraExpr()
    for cs, ws in terms:
        word: List[Gen] = []
        for tok in ws.split("*") if ws != "1" else ():
            m = _GEN_RE.match(tok)
            if not m:
                raise ValueError(f"bad generator token: {tok!r}")
            word.append(("a" if m.group(1) == "aL" else "b", m.group(2) == "+",
                         int(m.group(3))))
        out._accumulate(tuple(word), sympy.sympify(cs, locals=locs))
    return out


# -- numeric instantiation -------------------------------------------------------

def _word_bandwidth(w: Tuple[Gen, ...]) -> int:
    """Shell margin needed for the truncated instantiation to act exactly.

    Tracks the running left/right shell excursion as the word is applied
    (rightmost generator first): left multiplication by a+ raises the left
    shell, right multiplication by a raises the right shell.  The largest
    upward excursion of any intermediate bounds how deep the cutoff bites.
    """
    dl = dr = 0
    depth = 0
    for fam, dag, _m in reversed(w):
        if fam == "a":
            dl += 1 if dag else -1
        else:
            dr += -1 if dag else 1
        depth = max(depth, dl, dr, -dl, -dr)
    return depth


def to_superop(e: AlgebraExpr, space, potential: Optional[Callable[[float], float]] = None):
    """Instantiate the expression as a numeric superoperator on ``space``.

    Each term is its generator word (Space ladder leaves) followed by a
    coefficient grid evaluated on the block grid (r_left, r_right); entries
    whose generator word output vanishes never see the coefficient, so poles
    at unoccupied shells are harmless.  A pole multiplying a nonzero entry
    raises.  ``potential`` substitutes a concrete callable for ``U``.
    """
    lam = space.lam
    rvals = space.r_diag
    nf = e.normal()
    op = None
    for w, c in nf.sorted_terms():
        cnum = c.subs(LAM, sympy.Float(lam, 17))
        if potential is not None:
            cnum = cnum.replace(UFUN, lambda arg: sympy.sympify(potential(arg)))
        fn = sympy.lambdify((R, RR), cnum, modules="numpy")

        def coefficient(i, k, fn=fn):
            with np.errstate(divide="ignore", invalid="ignore"):
                grid = np.asarray(fn(rvals[i], rvals[k]), dtype=complex)
            return np.broadcast_to(grid, np.shape(i))

        word = None
        for fam, dag, mode in reversed(w):  # rightmost generator acts first
            leaf = space.ladder("L" if fam == "a" else "R", mode, dag)
            word = leaf if word is None else leaf @ word
        if word is None:
            word = SuperOp.identity(space.basis)
        term = word.with_coefficient(coefficient)
        op = term if op is None else op + term
    if op is None:
        op = 0.0 * SuperOp.identity(space.basis)
    op.name = "symbolic"
    op.bandwidth = max((_word_bandwidth(w) for w in nf.terms), default=0)
    return op
