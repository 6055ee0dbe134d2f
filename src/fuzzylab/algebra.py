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

On charge-zero states the left and right radii agree block-wise;
:meth:`AlgebraExpr.kappa_reduce` folds ``r_R`` into ``r`` accordingly.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import sympy
from sympy import I as sI

__all__ = [
    "R", "RR", "LAM", "UFUN",
    "Gen", "AlgebraExpr",
    "aL", "aL_dag", "aR", "aR_dag", "one", "coeff",
    "normal_order", "commutator_symbolic",
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


def _same_family_swap(g1: Gen, g2: Gen):
    """Rewrite g1 g2 -> g2 g1 (+ delta term sign) when both need reordering.

    Returns the delta sign, 0 for none.  Only an undaggered generator moving
    right past a daggered one of the same family produces a delta: +1 for the
    left family, -1 for the right family (same modes only).
    """
    (fam1, dag1, mode1), (fam2, dag2, mode2) = g1, g2
    if fam1 == fam2 and mode1 == mode2 and not dag1 and dag2:
        return 1 if fam1 == "a" else -1
    return 0


def _shift_coeff(c: sympy.Expr, word: Tuple[Gen, ...]) -> sympy.Expr:
    """Coefficient c moved from the right of ``word`` to its left."""
    da = db = 0
    for fam, dag, _mode in word:
        if fam == "a":
            da += -1 if dag else 1
        else:
            db += 1 if dag else -1
    if da == 0 and db == 0:
        return c
    return _shifted(c, da, db)


# Coefficient rewrites are pure functions of the sympy expression, and the
# proofs meet the same few dozen coefficients hundreds of times.
@functools.lru_cache(maxsize=None)
def _shifted(c: sympy.Expr, da: int, db: int) -> sympy.Expr:
    return c.subs({R: R + LAM * da, RR: RR + LAM * db}, simultaneous=True)


@functools.lru_cache(maxsize=None)
def _canonical_coeff(c: sympy.Expr) -> sympy.Expr:
    """Reduced fraction of expanded polynomials over the Gaussian rationals.

    The generators ``r``, ``r_R``, ``lam`` and the ``U(...)`` atoms are
    algebraically independent, so the result is 0 exactly when ``c`` is.
    """
    c = sympy.expand(c)
    if c == 0:
        return sympy.S.Zero
    try:
        c = sympy.cancel(sympy.together(c))
    except sympy.PolynomialError:
        c = sympy.simplify(c)
    return c


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
            for w2, c2 in other.terms.items():
                out._accumulate(w1 + w2, c1 * _shift_coeff(c2, w1))
        return out

    def __rmul__(self, other) -> "AlgebraExpr":
        c = sympy.sympify(other)
        return AlgebraExpr(terms={w: c * cc for w, cc in self.terms.items()})

    def __neg__(self) -> "AlgebraExpr":
        return (-1) * self

    def commutator(self, other: "AlgebraExpr") -> "AlgebraExpr":
        return self * other - other * self

    # -- normal ordering ----------------------------------------------------

    def normal(self) -> "AlgebraExpr":
        """Canonical form: per family daggered-left, modes ascending, left
        family before right family, diagonal mode-2 pairs eliminated, like
        terms merged with canonical rational coefficients; a term survives
        iff its canonical coefficient is not the zero expression."""
        if self.is_normal:
            return self
        out: Dict[Tuple[Gen, ...], sympy.Expr] = {}
        work: List[Tuple[sympy.Expr, Tuple[Gen, ...]]] = \
            [(c, w) for w, c in self.terms.items()]
        while work:
            c, w = work.pop()
            pos = _first_disorder(w)
            if pos is not None:
                g1, g2 = w[pos], w[pos + 1]
                swapped = w[:pos] + (g2, g1) + w[pos + 2:]
                work.append((c, swapped))
                delta = _same_family_swap(g1, g2)
                if delta:
                    work.append((delta * c, w[:pos] + w[pos + 2:]))
                continue
            reduced = _eliminate_diag_mode2(c, w)
            if reduced is not None:
                work.extend(reduced)
                continue
            out[w] = out[w] + c if w in out else c
        clean = {w: _canonical_coeff(c) for w, c in out.items()}
        return AlgebraExpr(terms={w: c for w, c in clean.items() if c != 0},
                           is_normal=True)

    # -- charge bookkeeping --------------------------------------------------

    def kappa_shifts(self) -> set:
        """Set of charge shifts (creation minus annihilation counts) over terms."""
        shifts = set()
        for w in self.terms:
            s = 0
            for fam, dag, _mode in w:
                s += 1 if dag else -1
            shifts.add(s)
        return shifts

    def kappa_reduce(self, allow_mixed: bool = False) -> "AlgebraExpr":
        """Identify the right radius with the left one, as valid on charge-zero
        states: a normal-ordered term with word charge shift s satisfies
        r_R = r - lam * s there.  Mixed-shift expressions are refused unless
        explicitly annotated with ``allow_mixed``."""
        nf = self.normal()
        shifts = nf.kappa_shifts()
        if len(shifts) > 1 and not allow_mixed:
            raise ValueError(f"mixed charge shifts {sorted(shifts)}; "
                             "pass allow_mixed=True to reduce sector-wise")
        out = AlgebraExpr()
        for w, c in nf.terms.items():
            s = sum(1 if dag else -1 for _fam, dag, _mode in w)
            out._accumulate(w, c.subs(RR, R - LAM * s))
        return out.normal()

    # -- inspection -----------------------------------------------------------

    def sorted_terms(self):
        def key(item):
            w, _c = item
            return (len(w), tuple(_gen_key(g) for g in w))
        return sorted(self.terms.items(), key=key)

    def __str__(self) -> str:
        return expr_to_text(self)


def _first_disorder(w: Tuple[Gen, ...]) -> Optional[int]:
    for i in range(len(w) - 1):
        if _gen_key(w[i]) > _gen_key(w[i + 1]):
            return i
    return None


def _eliminate_diag_mode2(c, w: Tuple[Gen, ...]):
    """Apply aL+[2]aL[2] = (r/lam - 1) - aL+[1]aL[1] (and the right-family
    analogue with r_R/lam + 1) to a sorted word containing a diagonal
    mode-2 pair.  Returns replacement terms, or None if already reduced."""
    counts = {}
    for g in w:
        counts[g] = counts.get(g, 0) + 1
    k1 = counts.get(("a", True, 1), 0)
    k2 = counts.get(("a", True, 2), 0)
    l1 = counts.get(("a", False, 1), 0)
    l2 = counts.get(("a", False, 2), 0)
    m1 = counts.get(("b", True, 1), 0)
    m2 = counts.get(("b", True, 2), 0)
    p1 = counts.get(("b", False, 1), 0)
    p2 = counts.get(("b", False, 2), 0)

    def build(ka, kb, la, lb, ma, mb, pa, pb) -> Tuple[Gen, ...]:
        return (("a", True, 1),) * ka + (("a", True, 2),) * kb \
            + (("a", False, 1),) * la + (("a", False, 2),) * lb \
            + (("b", True, 1),) * ma + (("b", True, 2),) * mb \
            + (("b", False, 1),) * pa + (("b", False, 2),) * pb

    if k2 >= 1 and l2 >= 1:
        shift = k1 + k2 - 1  # daggered left-family generators left of the pair
        num = (R - shift * LAM) / LAM - 1
        t1 = (c * num, build(k1, k2 - 1, l1, l2 - 1, m1, m2, p1, p2))
        t2 = (-c, build(k1 + 1, k2 - 1, l1 + 1, l2 - 1, m1, m2, p1, p2))
        return [t1, t2]
    if m2 >= 1 and p2 >= 1:
        shift = m1 + m2 - 1  # daggered right-family generators left of the pair
        num = (RR + shift * LAM) / LAM + 1
        t1 = (c * num, build(k1, k2, l1, l2, m1, m2 - 1, p1, p2 - 1))
        t2 = (-c, build(k1, k2, l1, l2, m1 + 1, m2 - 1, p1 + 1, p2 - 1))
        return [t1, t2]
    return None


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


def normal_order(e: AlgebraExpr) -> AlgebraExpr:
    return e.normal()


def commutator_symbolic(A: AlgebraExpr, B: AlgebraExpr) -> AlgebraExpr:
    return A.commutator(B).normal()


# -- text serialization --------------------------------------------------------

_GEN_TEXT = {("a", True): "aL+", ("a", False): "aL",
             ("b", True): "aR+", ("b", False): "aR"}
_GEN_RE = re.compile(r"^(aL|aR)(\+?)\[([12])\]$")


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


def _split_top_level(text: str, sep: str) -> List[str]:
    out, depth, cur = [], 0, []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and text.startswith(sep, i):
            out.append("".join(cur))
            cur = []
            i += len(sep)
            continue
        cur.append(ch)
        i += 1
    out.append("".join(cur))
    return out


def expr_from_text(text: str) -> AlgebraExpr:
    """Parse the grammar written by :func:`expr_to_text`."""
    locs = {"r": R, "r_R": RR, "lam": LAM, "U": UFUN, "I": sI}
    out = AlgebraExpr()
    for raw in _split_top_level(text.strip(), " + "):
        raw = raw.strip()
        if not raw:
            continue
        pieces = _split_top_level(raw, " * ")
        if len(pieces) != 2:
            raise ValueError(f"malformed term: {raw!r}")
        cs, ws = pieces[0].strip(), pieces[1].strip()
        if not (cs.startswith("(") and cs.endswith(")")):
            raise ValueError(f"coefficient must be parenthesized: {cs!r}")
        c = sympy.sympify(cs[1:-1], locals=locs)
        word: List[Gen] = []
        if ws != "1":
            for tok in ws.split("*"):
                m = _GEN_RE.match(tok.strip())
                if not m:
                    raise ValueError(f"bad generator token: {tok!r}")
                fam = "a" if m.group(1) == "aL" else "b"
                word.append((fam, m.group(2) == "+", int(m.group(3))))
        out._accumulate(tuple(word), c)
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
    from .operators import SuperOp  # local import to avoid a cycle

    lam = space.lam
    rvals = space.r_diag
    op = None
    for w, c in e.normal().sorted_terms():
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
    op.bandwidth = max((_word_bandwidth(w) for w in e.normal().terms), default=0)
    return op
