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
and their ``mors_out_of`` lists the elements over every point.
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
    base = h.base
    points = [(q, x) for q in range(base.n_objects) for x in range(len(h.fibers[q]))]
    # over[(q, x)]: every (q2, x2, eta2: q2 -> q) with action(eta2)(x2) = x.
    over = {pt: [] for pt in points}
    for q2, x2 in points:
        for eta2 in base.mors_out_of(q2):
            over[(base.mor_cod[eta2], h.action[eta2][x2])].append((q2, x2, eta2))

    hom, comp, action = base.hom, base.comp, h.action

    def respond(pt, cand, ch):
        (q1, x1, eta), (q2, x2, eta2) = cand, ch
        for e in hom(q1, q2):
            if comp[eta2, e] == eta and action[e][x1] == x2:
                return e
        return None

    won, stuck = _first_winners(points, over.get, over.get, respond)
    if stuck:
        return StarCounterexample(*stuck)
    return StarWitness(
        {pt: cand for pt, cand, _ in won},
        {(*pt, *ch): e for pt, _, answers in won for ch, e in answers},
    )
