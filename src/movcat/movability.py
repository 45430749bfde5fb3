"""Decision procedures for movability with explicit certificates, plus
constructive witness transport.

A category K is movable w.r.t. (L, Phi) when for every object X there are
M(X) and m_X: M(X) -> X such that every p: Y -> X admits u in
hom_L(Phi(M(X)), Phi(Y)) with Phi(p) . u = Phi(m_X).  Strong movability is
the special case L = K, Phi = 1_K.  Phi: K -> L carries K and L as its
source and target, so the relative functions take Phi alone.

Searches iterate candidates in ascending ref order, so reported witnesses
are the lexicographically least ones.  ``check_movable_wrt`` reads an
object X's candidates (M, m) from the morphisms into X, which are ascending
by ref; a stable sort by domain gives the order (M, then m) without probing
hom(M, X) for every object M.  The deciders here and in ``systems`` run one
first-winner search, ``_first_winners``, except where the target category
is thin (``FiniteCategory.thin``: no hom-set holds two morphisms).  There a
challenge's two sides lie in one hom-set of at most one morphism, so a
challenge is answered exactly when a hom-set is not empty, and
``_movable_thin`` decides by reachability bitsets.  It tries the same
candidates and challenges in the same order, and the search's answer is
the one morphism of that hom-set, so its witnesses, lifts and defeat
tables are the search's.  ``systems.check_star`` decides the copresheaf
condition as strong movability of the category of elements, here.  Transport
operations re-verify the transported witness rather than trusting the
proof; a verification failure is a hard internal error.  The public
transports also verify the witnesses they are given; their private bodies
``_product_transport`` and ``_weak_domination_transfer`` verify only what
they return, for a caller that has checked each input witness once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .builders import ProductResult, _radix_refs, elements_category
from .core import (
    Copresheaf,
    FiniteCategory,
    Functor,
    check_ref,
    compose_functors,
    identity_functor,
    identity_nat_trans,
    NaturalTransformation,
)
from .errors import SourceTargetMismatch, VerificationFailed


@dataclass(frozen=True)
class MovabilityWitness:
    """Certificate for (relative) movability.

    ``movers[X]`` is M(X); ``mover_mors[X]`` is m_X; ``lifts[p]`` is the
    lift u for the morphism p (relative to X = cod(p)).  For a strong
    witness the lifts are morphisms of K itself; for a relative witness
    they are morphisms of L.
    """

    movers: tuple[int, ...]
    mover_mors: tuple[int, ...]
    lifts: tuple[int, ...]


@dataclass(frozen=True)
class CandidateDefeat:
    """A candidate pair (M, m) together with the first p defeating it."""

    mover: int
    mover_mor: int
    defeating_p: int


@dataclass(frozen=True)
class Counterexample:
    """Object for which no (M(X), m_X) works, with one defeat per candidate."""

    obj: int
    defeats: tuple[CandidateDefeat, ...]


MovabilityResult = Union[MovabilityWitness, Counterexample]


def _first_winners(points, candidates, challenges, respond):
    """The exists-forall-exists search behind every decider.

    For each point in order, try ``candidates(pt)`` in order; a candidate
    wins when ``respond(pt, cand, ch)`` returns an answer (not None) for
    every challenge in ``challenges(pt)``.  Returns ``(won, None)``, where
    ``won`` lists ``(pt, winner, [(ch, answer), ...])`` per point, or
    ``(None, (pt, defeats))`` at the first point with no winner, where
    ``defeats`` maps each candidate to its first defeating challenge.
    """
    won = []
    for pt in points:
        chs = challenges(pt)
        defeats = {}
        for cand in candidates(pt):
            answers = []
            for ch in chs:
                ans = respond(pt, cand, ch)
                if ans is None:
                    defeats[cand] = ch
                    break
                answers.append((ch, ans))
            else:
                won.append((pt, cand, answers))
                break
        else:
            return None, (pt, defeats)
    return won, None


def check_movable_wrt(phi: Functor) -> MovabilityResult:
    """Decide movability of K w.r.t. L and phi: K -> L, exhaustively."""
    if phi.target.thin:
        return _movable_thin(phi)
    return _movable_search(phi)


def _movable_search(phi: Functor) -> MovabilityResult:
    """``check_movable_wrt`` by the first-winner search, for any L."""
    k, l = phi.source, phi.target
    hom, comp, mor_dom = l.hom, l.comp, k.mor_dom

    def candidates(x):
        into = sorted(k.mors_into(x), key=mor_dom.__getitem__)
        return ((mor_dom[m], m) for m in into)

    obj_map, mor_map = phi.obj_map, phi.mor_map

    def respond(x, cand, p):
        mobj, m = cand
        pp, tm = mor_map[p], mor_map[m]
        for u in hom(obj_map[mobj], obj_map[mor_dom[p]]):
            if comp[(pp, u)] == tm:
                return u
        return None

    won, stuck = _first_winners(range(k.n_objects), candidates, k.mors_into, respond)
    if stuck:
        x, defeats = stuck
        return Counterexample(
            x, tuple(CandidateDefeat(*cand, p) for cand, p in defeats.items())
        )
    lifts = [0] * k.n_mors
    for _, _, answers in won:
        for p, u in answers:
            lifts[p] = u
    return MovabilityWitness(
        tuple(mobj for _, (mobj, _), _ in won),
        tuple(m for _, (_, m), _ in won),
        tuple(lifts),
    )


def _movable_thin(phi: Functor) -> MovabilityResult:
    """``check_movable_wrt`` for a thin L, by reachability bitsets.

    Phi(p) . u and Phi(m) both lie in hom(Phi M, Phi X), which holds at most
    one morphism, so (M, m) answers p exactly when hom(Phi M, Phi Y) is not
    empty, with its one morphism.  So (M, m) wins at X when ``up`` of Phi M,
    the codomains of L's arrows out of it, holds ``need``, the Phi(dom p)
    over the p into X; its first defeat is the first p whose Phi(dom p) it
    misses.  An object's bit is its ref; ``up`` is made when a candidate
    first needs it.  The candidates come in the search's order.
    """
    k, l = phi.source, phi.target
    # L's hom-sets read from their dict: calling ``hom`` per lift made this
    # body about 13 % slower on a cap-size coslice.
    obj_map, mor_dom, lhom, lcod = phi.obj_map, k.mor_dom, l._hom, l.mor_cod
    up = [None] * l.n_objects

    def reach(m):
        a = obj_map[mor_dom[m]]
        r = up[a]
        if r is None:
            r = 0
            for u in l.mors_out_of(a):
                r |= 1 << lcod[u]
            up[a] = r
        return r

    movers, mover_mors, lifts = [], [], [0] * k.n_mors
    for x in range(k.n_objects):
        into = k.mors_into(x)
        need = 0
        for p in into:
            need |= 1 << obj_map[mor_dom[p]]
        cands = sorted(into, key=mor_dom.__getitem__)
        for m in cands:
            if not need & ~reach(m):
                break
        else:
            defeats = []
            for m in cands:
                missing = need & ~reach(m)
                p = next(p for p in into if missing >> obj_map[mor_dom[p]] & 1)
                defeats.append(CandidateDefeat(mor_dom[m], m, p))
            return Counterexample(x, tuple(defeats))
        a = obj_map[mor_dom[m]]
        for p in into:
            lifts[p] = lhom[a, obj_map[mor_dom[p]]][0]
        movers.append(mor_dom[m])
        mover_mors.append(m)
    return MovabilityWitness(tuple(movers), tuple(mover_mors), tuple(lifts))


def check_strongly_movable(k: FiniteCategory) -> MovabilityResult:
    """Decide strong movability: movability w.r.t. K itself and 1_K."""
    return check_movable_wrt(identity_functor(k))


def space_movability(h: Copresheaf) -> MovabilityResult:
    """Finite model of space movability: movability of the category of
    elements of H w.r.t. its base and the projection functor."""
    return check_movable_wrt(elements_category(h).forgetful)


def witness_valid_wrt(phi: Functor, w: MovabilityWitness) -> bool:
    """Exhaustively re-check every witness equation."""
    return _witness_valid(phi.source, phi.target, phi.obj_map, phi.mor_map, w)


def witness_valid(k: FiniteCategory, w: MovabilityWitness) -> bool:
    """Re-check a strong-movability witness."""
    return _witness_valid(k, k, range(k.n_objects), range(k.n_mors), w)


def _witness_valid(k, l, obj_map, mor_map, w) -> bool:
    """``witness_valid_wrt`` along the functor with these object and
    morphism maps, which the caller has checked."""
    if (
        len(w.movers) != k.n_objects
        or len(w.mover_mors) != k.n_objects
        or len(w.lifts) != k.n_mors
    ):
        return False
    for x in range(k.n_objects):
        mobj, m = w.movers[x], w.mover_mors[x]
        if k.mor_dom[m] != mobj or k.mor_cod[m] != x:
            return False
        tm = mor_map[m]
        for p in k.mors_into(x):
            u = w.lifts[p]
            if u not in l.hom(obj_map[mobj], obj_map[k.mor_dom[p]]):
                return False
            if l.comp[(mor_map[p], u)] != tm:
                return False
    return True


def postcompose_transfer(
    phi: Functor, w: MovabilityWitness, f: Functor
) -> MovabilityWitness:
    """Push a relative witness along F: L -> L', certifying movability
    w.r.t. (L', F . phi).  Raises SourceTargetMismatch when F does not start
    at L, before any witness is checked.  Re-verifies; raises
    VerificationFailed on bugs."""
    f_phi = compose_functors(f, phi)
    if not witness_valid_wrt(phi, w):
        raise VerificationFailed("input witness does not verify")
    out = MovabilityWitness(
        w.movers, w.mover_mors, tuple(f.mor_map[u] for u in w.lifts)
    )
    if not witness_valid_wrt(f_phi, out):
        raise VerificationFailed("post-composed witness does not verify")
    return out


def weak_domination_transfer(
    f: Functor,
    g: Functor,
    phi: NaturalTransformation,
    w_l: MovabilityWitness,
) -> MovabilityWitness:
    """Transfer strong movability along weak functorial domination.

    Given F: K -> L, G: L -> K, a natural transformation phi: G.F => 1_K,
    and a strong-movability witness of L, produce one for K:
    M(X) = G(M(F(X))), m_X = phi(X) . G(m_F(X)), and each p: Y -> X lifts
    via u = phi(Y) . G(v) where v is L's lift for F(p).
    """
    k, l = f.source, f.target
    if g.source != l or g.target != k:
        raise SourceTargetMismatch("G must map L back to K")
    gf = compose_functors(g, f)
    if phi.source != gf or phi.target != identity_functor(k):
        raise SourceTargetMismatch("phi must be a transformation G.F => 1_K")
    if not witness_valid(l, w_l):
        raise VerificationFailed("witness of L does not verify")
    return _weak_domination_transfer(f, g, phi, w_l)


def _weak_domination_transfer(
    f: Functor,
    g: Functor,
    phi: NaturalTransformation,
    w_l: MovabilityWitness,
) -> MovabilityWitness:
    """``weak_domination_transfer`` with its inputs trusted: the caller
    vouches for the types of F, G and phi and has verified ``w_l``.  The
    output is still verified."""
    k = f.source
    movers = []
    mover_mors = []
    lifts = [0] * k.n_mors
    for x in range(k.n_objects):
        fx = f.obj_map[x]
        movers.append(g.obj_map[w_l.movers[fx]])
        mover_mors.append(k.comp[(phi.components[x], g.mor_map[w_l.mover_mors[fx]])])
        for p in k.mors_into(x):
            v = w_l.lifts[f.mor_map[p]]
            lifts[p] = k.comp[(phi.components[k.mor_dom[p]], g.mor_map[v])]
    out = MovabilityWitness(tuple(movers), tuple(mover_mors), tuple(lifts))
    if not witness_valid(k, out):
        raise VerificationFailed("transferred witness does not verify")
    return out


def product_transport(
    product: ProductResult, witnesses: Sequence[MovabilityWitness]
) -> MovabilityWitness:
    """Combine strong-movability witnesses of the factors into one for the
    product, componentwise."""
    factors = product.factors
    if len(witnesses) != len(factors):
        raise SourceTargetMismatch("one witness per factor required")
    for c, w in zip(factors, witnesses):
        if not witness_valid(c, w):
            raise VerificationFailed("factor witness does not verify")
    return _product_transport(product, witnesses)


def _product_transport(
    product: ProductResult, witnesses: Sequence[MovabilityWitness]
) -> MovabilityWitness:
    """``product_transport`` with its inputs trusted: the caller has
    verified one witness per factor.  The output is still verified.

    Each table of the product witness lists the factors' answers for the
    tuples in ``product.objects`` or ``product.morphisms``, whose refs are
    radix numbers in the factors' sizes (see ``ProductResult``), so each
    table is the radix fold of the factors' tables."""
    n_objs = [c.n_objects for c in product.factors]
    n_mors = [c.n_mors for c in product.factors]
    out = MovabilityWitness(
        tuple(_radix_refs([w.movers for w in witnesses], n_objs)),
        tuple(_radix_refs([w.mover_mors for w in witnesses], n_mors)),
        tuple(_radix_refs([w.lifts for w in witnesses], n_mors)),
    )
    if not witness_valid(product.category, out):
        raise VerificationFailed("product witness does not verify")
    return out


def factor_transport(
    product: ProductResult, w: MovabilityWitness, i0: int
) -> MovabilityWitness:
    """Project a strong-movability witness of the product onto factor i0.

    This is a weak-domination transfer: F pads each object X of the factor
    to a tuple with object 0 in every other slot, and each p: Y -> X to a
    tuple with identities elsewhere; G is the projection and phi = 1.
    A factor with no objects includes into the product by the empty functor.
    A factor with objects has no inclusion into an empty product, and
    projecting onto it raises SourceTargetMismatch, as does an i0 that
    indexes no factor.
    """
    check_ref(i0, len(product.factors), "factor", "a product")
    fac = product.factors[i0]

    def pad(fill, v):
        out = list(fill)
        out[i0] = v
        return out

    if fac.n_objects and not product.category.n_objects:
        raise SourceTargetMismatch(
            "a factor with objects has no inclusion into an empty product"
        )
    zeros = [0] * len(product.factors)
    # Nothing is padded when fac has no objects, so an object-less factor's
    # missing identity is never read.
    ids = [c.identity[0] if c.n_objects else None for c in product.factors]
    inclusion = Functor(
        fac,
        product.category,
        tuple(product.object_index(pad(zeros, x)) for x in range(fac.n_objects)),
        tuple(product.morphism_index(pad(ids, p)) for p in range(fac.n_mors)),
    )
    return weak_domination_transfer(
        inclusion,
        product.projections[i0],
        identity_nat_trans(identity_functor(fac)),
        w,
    )
