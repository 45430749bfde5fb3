"""Decision procedures for movability with explicit certificates, plus
constructive witness transport.

A category K is movable w.r.t. (L, Phi) when for every object X there are
M(X) and m_X: M(X) -> X such that every p: Y -> X admits u in
hom_L(Phi(M(X)), Phi(Y)) with Phi(p) . u = Phi(m_X).  Strong movability is
the special case L = K, Phi = 1_K.

Searches iterate candidates in ascending ref order, so reported witnesses
are the lexicographically least ones.  These deciders and those in
``systems`` all run one first-winner search, ``_first_winners``.  Transport
operations re-verify the transported witness rather than trusting the
proof; a verification failure is a hard internal error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .builders import ProductResult, elements_category
from .core import (
    Copresheaf,
    FiniteCategory,
    Functor,
    compose_functors,
    identity_functor,
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


def _check_phi(k: FiniteCategory, l: FiniteCategory, phi: Functor) -> None:
    if phi.source != k or phi.target != l:
        raise SourceTargetMismatch("functor does not map K to L")


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


def check_movable_wrt(
    k: FiniteCategory, l: FiniteCategory, phi: Functor
) -> MovabilityResult:
    """Decide movability of K w.r.t. L and phi: K -> L, exhaustively."""
    _check_phi(k, l, phi)

    def candidates(x):
        return ((mobj, m) for mobj in range(k.n_objects) for m in k.hom(mobj, x))

    def respond(x, cand, p):
        mobj, m = cand
        pp, tm = phi.mor_map[p], phi.mor_map[m]
        us = l.hom(phi.obj_map[mobj], phi.obj_map[k.mor_dom[p]])
        return next((u for u in us if l.comp[(pp, u)] == tm), None)

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


def check_strongly_movable(k: FiniteCategory) -> MovabilityResult:
    """Decide strong movability: movability w.r.t. K itself and 1_K."""
    return check_movable_wrt(k, k, identity_functor(k))


def space_movability(h: Copresheaf) -> MovabilityResult:
    """Finite model of space movability: movability of the category of
    elements of H w.r.t. its base and the projection functor."""
    elems = elements_category(h)
    return check_movable_wrt(elems.category, h.base, elems.forgetful)


def witness_valid_wrt(
    k: FiniteCategory, l: FiniteCategory, phi: Functor, w: MovabilityWitness
) -> bool:
    """Exhaustively re-check every witness equation."""
    _check_phi(k, l, phi)
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
        tm = phi.mor_map[m]
        for p in k.mors_into(x):
            u = w.lifts[p]
            if u not in l.hom(phi.obj_map[mobj], phi.obj_map[k.mor_dom[p]]):
                return False
            if l.comp[(phi.mor_map[p], u)] != tm:
                return False
    return True


def witness_valid(k: FiniteCategory, w: MovabilityWitness) -> bool:
    """Re-check a strong-movability witness."""
    return witness_valid_wrt(k, k, identity_functor(k), w)


def postcompose_transfer(
    k: FiniteCategory,
    l: FiniteCategory,
    phi: Functor,
    w: MovabilityWitness,
    f: Functor,
) -> MovabilityWitness:
    """Push a relative witness along F: L -> L', certifying movability
    w.r.t. (L', F . phi).  Re-verifies; raises VerificationFailed on bugs."""
    if f.source != l:
        raise SourceTargetMismatch("F must start at L")
    if not witness_valid_wrt(k, l, phi, w):
        raise VerificationFailed("input witness does not verify")
    out = MovabilityWitness(
        w.movers, w.mover_mors, tuple(f.mor_map[u] for u in w.lifts)
    )
    if not witness_valid_wrt(k, f.target, compose_functors(f, phi), out):
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
    cat = product.category
    movers = []
    mover_mors = []
    for o in range(cat.n_objects):
        comps = product.object_components(o)
        movers.append(
            product.object_index([w.movers[c] for w, c in zip(witnesses, comps)])
        )
        mover_mors.append(
            product.morphism_index(
                [w.mover_mors[c] for w, c in zip(witnesses, comps)]
            )
        )
    lifts = []
    for p in range(cat.n_mors):
        comps = product.morphism_components(p)
        lifts.append(
            product.morphism_index([w.lifts[c] for w, c in zip(witnesses, comps)])
        )
    out = MovabilityWitness(tuple(movers), tuple(mover_mors), tuple(lifts))
    if not witness_valid(cat, out):
        raise VerificationFailed("product witness does not verify")
    return out


def factor_transport(
    product: ProductResult, w: MovabilityWitness, i0: int
) -> MovabilityWitness:
    """Project a strong-movability witness of the product onto factor i0.

    Each object X of the factor is padded to a tuple with object 0 in every
    other slot, and each p: Y -> X to a tuple with identities elsewhere.
    """
    cat = product.category
    if not witness_valid(cat, w):
        raise VerificationFailed("product witness does not verify")
    factors = product.factors
    fac = factors[i0]
    movers = []
    mover_mors = []
    lifts = [0] * fac.n_mors
    for x in range(fac.n_objects):
        padded_obj = [0] * len(factors)
        padded_obj[i0] = x
        o = product.object_index(padded_obj)
        movers.append(product.object_components(w.movers[o])[i0])
        mover_mors.append(product.morphism_components(w.mover_mors[o])[i0])
        for p in fac.mors_into(x):
            padded = [c.identity[0] for c in factors]
            padded[i0] = p
            big_p = product.morphism_index(padded)
            lifts[p] = product.morphism_components(w.lifts[big_p])[i0]
    out = MovabilityWitness(tuple(movers), tuple(mover_mors), tuple(lifts))
    if not witness_valid(fac, out):
        raise VerificationFailed("factor witness does not verify")
    return out
