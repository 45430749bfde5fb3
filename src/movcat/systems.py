"""Inverse systems over finite posets inside an ambient finite category,
cones valued in a copresheaf, and the checkers for the two strong-movability
conditions on systems, the associated-system conditions, and the direct
object-by-object condition on copresheaves.

The index poset is not required to be directed.  Over a finite directed
poset both system conditions hold trivially: the maximum element m serves as
a' for every a; SM1 then has a* = m, the only upper bound of m, and
r = bond(a'', m) meets both of its equations by functoriality; SM2, under a
compatible cone, is met by the same r.  So the ``sm-bridge`` law checks
directly that SM1 holds on every directed index, and non-directed indices
are what make the checkers interesting.  Directedness is reported on
validation because the classical definitions presuppose it.

SM1, SM2 and the copresheaf condition are decided by the same first-winner
search as movability (``movability._first_winners``).  The copresheaf
condition is strong movability of the category of elements (a
``CommaResult``), decided without building it: one pass over the points
and their ``mors_out_of`` lists the elements over every point.  Over a thin
base the category of elements is thin too, and ``check_star`` decides by
reachability bitsets over the points instead, with the search's answers
(see ``movability``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .core import Copresheaf, FiniteCategory, FinitePoset
from .errors import ConeIncompatible, ValidationFailed, Violation
from .movability import _first_winners


@dataclass(frozen=True)
class InverseSystem:
    """Indexed objects with bonding morphisms bond[(a, a')] : X_a' -> X_a
    for a <= a', functorial under composition."""

    ambient: FiniteCategory
    index: FinitePoset
    at: tuple[int, ...]
    bond: dict

    @property
    def directed(self) -> bool:
        return self.index.directed


def validate_system(
    ambient: FiniteCategory,
    index: FinitePoset,
    at: Sequence[int],
    bond: Mapping[tuple[int, int], int],
) -> InverseSystem:
    """Validate typing and bond functoriality.

    Reflexive bonds may be omitted (they are filled with identities).
    Violation codes: BadRef (an object out of range, or a bond key that is
    not a pair of index refs), BondTypeError, BondMissing,
    BondFunctorialityBroken.
    """
    bad: list[Violation] = []
    if len(at) != index.n:
        raise ValidationFailed("system", [Violation("BadRef", "object map size")])
    for a, x in enumerate(at):
        if not 0 <= x < ambient.n_objects:
            bad.append(Violation("BadRef", f"object at index {index.elements[a]}"))
    for key in bond:
        pair = isinstance(key, tuple) and len(key) == 2
        if not pair or not all(isinstance(a, int) and 0 <= a < index.n for a in key):
            bad.append(Violation("BadRef", f"bond key {key} out of range"))
    if bad:
        raise ValidationFailed("system", bad)
    full = dict(bond)
    for a in range(index.n):
        ident = ambient.identity[at[a]]
        if (a, a) in full:
            if full[(a, a)] != ident:
                bad.append(
                    Violation("BondTypeError", f"reflexive bond at {index.elements[a]}")
                )
        else:
            full[(a, a)] = ident
    for (a, a2), m in full.items():
        if not index.leq(a, a2):
            bad.append(
                Violation(
                    "BondTypeError",
                    f"bond ({index.elements[a]}, {index.elements[a2]}) not a <= pair",
                )
            )
        elif m not in ambient.hom(at[a2], at[a]):
            bad.append(
                Violation(
                    "BondTypeError",
                    f"bond ({index.elements[a]}, {index.elements[a2]}) mistyped",
                )
            )
    for i, j in index.relation:
        if (i, j) not in full:
            bad.append(
                Violation(
                    "BondMissing", f"({index.elements[i]}, {index.elements[j]})"
                )
            )
    if bad:
        raise ValidationFailed("system", bad)
    for a in range(index.n):
        for a2 in index.up_set(a):
            for a3 in index.up_set(a2):
                lhs = ambient.comp[(full[(a, a2)], full[(a2, a3)])]
                if lhs != full[(a, a3)]:
                    bad.append(
                        Violation(
                            "BondFunctorialityBroken",
                            f"({index.elements[a]}, {index.elements[a2]}, "
                            f"{index.elements[a3]})",
                        )
                    )
    if bad:
        raise ValidationFailed("system", bad)
    return InverseSystem(ambient, index, tuple(at), full)


@dataclass(frozen=True)
class SystemCone:
    """Compatible family of copresheaf elements standing in for the
    projections from the apex: element[a] lives in H(X_a)."""

    copresheaf: Copresheaf
    elements: tuple[int, ...]


def make_cone(
    system: InverseSystem, h: Copresheaf, elements: Sequence[int]
) -> SystemCone:
    """Type-check a cone (compatibility itself is checked by the checkers,
    so that condition-1 failures stay observable)."""
    bad: list[Violation] = []
    if h.base != system.ambient:
        raise ValidationFailed(
            "cone", [Violation("BadRef", "copresheaf base is not the ambient")]
        )
    if len(elements) != system.index.n:
        raise ValidationFailed("cone", [Violation("BadRef", "element count")])
    for a, x in enumerate(elements):
        if not 0 <= x < len(h.fibers[system.at[a]]):
            bad.append(
                Violation("BadRef", f"element at {system.index.elements[a]}")
            )
    if bad:
        raise ValidationFailed("cone", bad)
    return SystemCone(h, tuple(elements))


def cone_compatible(system: InverseSystem, cone: SystemCone) -> list[tuple[int, int]]:
    """Pairs (a, a') violating action(bond(a, a'))(element(a')) = element(a)."""
    out = []
    for a in range(system.index.n):
        for a2 in system.index.up_set(a):
            if (
                cone.copresheaf.action[system.bond[(a, a2)]][cone.elements[a2]]
                != cone.elements[a]
            ):
                out.append((a, a2))
    return out


@dataclass(frozen=True)
class SM1Witness:
    """For each a: the chosen a'; for each (a, a''): the chosen (a*, r)."""

    alpha_prime: tuple[int, ...]
    choices: dict  # (a, a'') -> (a_star, r)


@dataclass(frozen=True)
class SM2Witness:
    alpha_prime: tuple[int, ...]
    choices: dict  # (a, a'') -> r


@dataclass(frozen=True)
class SMCounterexample:
    """Index a defeating every candidate a'; defeats[a'] is the first a''
    for which no witness exists."""

    alpha: int
    defeats: dict


SM1Result = Union[SM1Witness, SMCounterexample]
SM2Result = Union[SM2Witness, SMCounterexample]


def _check_sm(system: InverseSystem, pick, witness):
    """For all a, exists a' >= a, for all a'' >= a: ``pick(a', a'', rs)``
    answers from the r: X_a' -> X_a'' with bond(a, a'') . r = bond(a, a')."""
    amb, idx, at, bond = system.ambient, system.index, system.at, system.bond

    def respond(a: int, a1: int, a2: int):
        rs = [
            r
            for r in amb.hom(at[a1], at[a2])
            if amb.comp[(bond[(a, a2)], r)] == bond[(a, a1)]
        ]
        return pick(a1, a2, rs)

    won, stuck = _first_winners(range(idx.n), idx.up_set, idx.up_set, respond)
    if stuck:
        return SMCounterexample(*stuck)
    return witness(
        tuple(a1 for _, a1, _ in won),
        {(a, a2): ans for a, _, answers in won for a2, ans in answers},
    )


def check_sm1(system: InverseSystem) -> SM1Result:
    """Evaluate the inverse-system strong-movability condition:

    for all a, exists a' >= a, for all a'' >= a, exist a* >= a', a'' and
    r: X_a' -> X_a'' with bond(a, a') = bond(a, a'') . r and
    r . bond(a', a*) = bond(a'', a*).
    """
    amb, bond = system.ambient, system.bond

    def pick(a1: int, a2: int, rs: list[int]):
        # Single a* serving both equalities; smallest (a*, r).
        return next(
            (
                (astar, r)
                for astar in system.index.upper_bounds(a1, a2)
                for r in rs
                if amb.comp[(r, bond[(a1, astar)])] == bond[(a2, astar)]
            ),
            None,
        )

    return _check_sm(system, pick, SM1Witness)


def check_sm2(system: InverseSystem, cone: SystemCone) -> SM2Result:
    """Evaluate the cone-level reformulation:

    for all a, exists a' >= a, for all a'' >= a, exists r: X_a' -> X_a''
    with bond(a, a'') . r = bond(a, a') and action(r)(element(a')) =
    element(a'').

    Raises ConeIncompatible when the cone violates compatibility.
    """
    bad = cone_compatible(system, cone)
    if bad:
        raise ConeIncompatible(f"cone incompatible at pairs {bad}")
    h, el = cone.copresheaf, cone.elements

    def pick(a1: int, a2: int, rs: list[int]):
        return next((r for r in rs if h.action[r][el[a1]] == el[a2]), None)

    return _check_sm(system, pick, SM2Witness)


@dataclass(frozen=True)
class AssociatedReport:
    """Verdicts for the three associated-system conditions; condition N
    holds exactly when it has no failures.

    cond1: cone compatibility; cond2: every copresheaf element factors
    through the cone; cond3: parallel morphisms equalized on the cone are
    equalized by some bond.
    """

    cond1_failures: tuple
    cond2_failures: tuple  # (Q, x) with no factorization
    cond3_failures: tuple  # (a, Q, f, g) with no equalizing index

    @property
    def cond1(self) -> bool:
        return not self.cond1_failures

    @property
    def cond2(self) -> bool:
        return not self.cond2_failures

    @property
    def cond3(self) -> bool:
        return not self.cond3_failures

    @property
    def associated(self) -> bool:
        return self.cond1 and self.cond2 and self.cond3


def check_associated(system: InverseSystem, cone: SystemCone) -> AssociatedReport:
    """Evaluate the three associated-system conditions exhaustively."""
    amb = system.ambient
    idx = system.index
    h = cone.copresheaf
    c1 = cone_compatible(system, cone)

    reached = {
        (amb.mor_cod[f], h.action[f][cone.elements[a]])
        for a in range(idx.n)
        for f in amb.mors_out_of(system.at[a])
    }
    points = ((q, x) for q in range(amb.n_objects) for x in range(len(h.fibers[q])))
    c2 = [pt for pt in points if pt not in reached]

    c3: list[tuple[int, int, int, int]] = []
    for a in range(idx.n):
        xa = system.at[a]
        for q in range(amb.n_objects):
            for f, g in itertools.combinations(amb.hom(xa, q), 2):
                if h.action[f][cone.elements[a]] != h.action[g][cone.elements[a]]:
                    continue
                equalized = any(
                    amb.comp[(f, system.bond[(a, a1)])]
                    == amb.comp[(g, system.bond[(a, a1)])]
                    for a1 in idx.up_set(a)
                )
                if not equalized:
                    c3.append((a, q, f, g))

    return AssociatedReport(tuple(c1), tuple(c2), tuple(c3))


@dataclass(frozen=True)
class StarWitness:
    """For each (Q, x): the chosen (Q', x', eta) and, per challenge
    (Q'', x'', eta'), the connecting eta''."""

    choice: dict  # (q, x) -> (q1, x1, eta)
    connectors: dict  # (q, x, q2, x2, eta2) -> eta''


@dataclass(frozen=True)
class StarCounterexample:
    at: tuple[int, int]  # (Q, x) defeating every candidate
    defeats: dict  # (q1, x1, eta) -> first defeating (q2, x2, eta2)


StarResult = Union[StarWitness, StarCounterexample]


def check_star(h: Copresheaf) -> StarResult:
    """Directly evaluate the object-by-object condition on a copresheaf:

    for every (Q, x) there is (Q', x', eta: Q' -> Q) with
    action(eta)(x') = x such that every (Q'', x'', eta': Q'' -> Q) with
    action(eta')(x'') = x admits eta'': Q' -> Q'' with eta' . eta'' = eta
    and action(eta'')(x') = x''.

    This is strong movability of the category of elements, computed without
    building it.
    """
    if h.base.thin:
        return _star_thin(h)
    return _star_search(h)


def _points_over(h: Copresheaf):
    """The points (Q, x) in order; ``at[Q]``, the place of (Q, 0) among
    them; and for each place, the (Q'', x'', eta': Q'' -> Q) with
    action(eta')(x'') = x over the point (Q, x) there, in the order of their
    points, then of eta'."""
    base, action = h.base, h.action
    at, points = [], []
    for q, fiber in enumerate(h.fibers):
        at.append(len(points))
        points += [(q, x) for x in range(len(fiber))]
    over = [[] for _ in points]
    for q2, x2 in points:
        for eta2 in base.mors_out_of(q2):
            over[at[base.mor_cod[eta2]] + action[eta2][x2]].append((q2, x2, eta2))
    return points, at, over


def _star_search(h: Copresheaf) -> StarResult:
    """``check_star`` by the first-winner search, for any base."""
    points, _, over = _points_over(h)
    hom, comp, action = h.base.hom, h.base.comp, h.action

    def respond(j, cand, ch):
        (q1, x1, eta), (q2, x2, eta2) = cand, ch
        for e in hom(q1, q2):
            if comp[eta2, e] == eta and action[e][x1] == x2:
                return e
        return None

    won, stuck = _first_winners(
        range(len(points)), over.__getitem__, over.__getitem__, respond
    )
    if stuck:
        j, defeats = stuck
        return StarCounterexample(points[j], defeats)
    return StarWitness(
        {points[j]: cand for j, cand, _ in won},
        {(*points[j], *ch): e for j, _, answers in won for ch, e in answers},
    )


def _star_thin(h: Copresheaf) -> StarResult:
    """``check_star`` over a thin base, by reachability bitsets.

    Over a thin base eta' . eta'' and eta both lie in hom(Q', Q), which holds
    at most one morphism, so (Q', x', eta) answers (Q'', x'', eta') exactly
    when the one eta'': Q' -> Q'' exists and carries x' to x'', that is,
    when (Q'', x'') is in ``up`` of (Q', x'), the points to which the arrows
    out of Q' carry x'.  So a candidate wins at (Q, x) when ``up`` of its
    point holds ``need``, the points of the challenges there; its first
    defeat is the first challenge whose point it misses.  A point's bit is
    its place in ``points``; ``up`` is made when a candidate first needs it.
    """
    points, at, over = _points_over(h)
    # The hom-sets read from their dict, as in ``movability._movable_thin``.
    base, action, hom = h.base, h.action, h.base._hom
    up = [None] * len(points)

    def reach(q1, x1):
        i = at[q1] + x1
        r = up[i]
        if r is None:
            r = 0
            for e in base.mors_out_of(q1):
                r |= 1 << at[base.mor_cod[e]] + action[e][x1]
            up[i] = r
        return r

    choice, connectors = {}, {}
    for j, chs in enumerate(over):
        need = 0
        for q2, x2, _ in chs:
            need |= 1 << at[q2] + x2
        for cand in chs:
            if not need & ~reach(cand[0], cand[1]):
                break
        else:
            defeats = {}
            for cand in chs:
                missing = need & ~reach(cand[0], cand[1])
                defeats[cand] = next(
                    ch for ch in chs if missing >> at[ch[0]] + ch[1] & 1
                )
            return StarCounterexample(points[j], defeats)
        pt, q1 = points[j], cand[0]
        choice[pt] = cand
        for ch in chs:
            connectors[(*pt, *ch)] = hom[q1, ch[0]][0]
    return StarWitness(choice, connectors)
