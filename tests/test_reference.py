"""Every decider and search against its transcription in ``util``.

Results are compared field by field with each dict as its item list, so a
decider that picks a different (still valid) witness, reports a different
defeating challenge, or fills a dict in another order fails here even when
the campaign verdicts stay the same.
"""

import dataclasses
import itertools
import random

from movcat import search
from movcat.builders import (
    add_initial_object,
    build_monoid_category,
    build_poset_category,
    coslice_category,
    elements_category,
    product_category,
)
from movcat.campaign import generate_campaign_instance
from movcat.core import identity_functor, make_poset, validate_category
from movcat.generators import generate_instance, terminal_copresheaf
from movcat.movability import (
    MovabilityWitness,
    check_strongly_movable,
    space_movability,
)
from movcat.search import (
    enumerate_functors,
    find_functorial_domination,
    find_weak_domination,
)
from movcat.systems import (
    SM1Witness,
    check_sm1,
    check_sm2,
    check_star,
    cone_compatible,
    make_cone,
    validate_system,
)
from util import (
    antichain,
    chain,
    diamond,
    naive_domination,
    naive_domination_at,
    naive_functors,
    naive_movable_wrt,
    naive_sm1,
    naive_sm2,
    naive_star,
    pointed_sets_2,
    random_retract_system,
    sm1_answers,
    v_poset_category,
)


def _pinned(res):
    return type(res).__name__, [
        (f.name, list(v.items()) if isinstance(v, dict) else v)
        for f in dataclasses.fields(res)
        for v in [getattr(res, f.name)]
    ]


def _same(got, want, where):
    assert _pinned(got) == _pinned(want), where


def _naive_space(h):
    elems = elements_category(h)
    return naive_movable_wrt(elems.category, h.base, elems.forgetful)


def _diamond_over_retract():
    """Index a < b, c < t over a retract: p: X -> Y, s: Y -> X with
    p . s = 1_Y and e = s . p.  X_t = Y and the other objects are X;
    bond(a, b) = bond(a, c) = e and every bond out of t is s.  At a the
    least a' is b, and for a'' = c the only a* is t, where both r = 1_X and
    r = e answer."""
    amb = validate_category(
        ["X", "Y"],
        [("1X", 0, 0), ("1Y", 1, 1), ("p", 0, 1), ("s", 1, 0), ("e", 0, 0)],
        [0, 1],
        {
            (0, 0): 0, (2, 0): 2, (4, 0): 4, (0, 4): 4, (2, 4): 2, (4, 4): 4,
            (1, 1): 1, (3, 1): 3, (1, 2): 2, (3, 2): 4,
            (0, 3): 3, (2, 3): 1, (4, 3): 3,
        },
    )
    index = make_poset(["a", "b", "c", "t"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    bond = {(0, 1): 4, (0, 2): 4, (0, 3): 3, (1, 3): 3, (2, 3): 3}
    system = validate_system(amb, index, [0, 0, 0, 1], bond)
    return system, make_cone(system, terminal_copresheaf(amb), [0] * 4)


def test_deciders_match_quantifier_reference():
    system, cone = _diamond_over_retract()
    _same(check_sm1(system), naive_sm1(system), "retract")
    _same(check_sm2(system, cone), naive_sm2(system, cone), "retract")
    for law in ("sm-bridge", "star-bridge"):
        for seed in range(300):
            ent = generate_campaign_instance(law, seed)["S"]
            system, cone = ent.system, ent.cone
            where = f"{law} seed {seed}"
            _same(check_sm1(system), naive_sm1(system), where)
            if not cone_compatible(system, cone):
                _same(check_sm2(system, cone), naive_sm2(system, cone), where)
            _same(check_star(cone.copresheaf), naive_star(cone.copresheaf), where)
    for seed in range(300):
        k = generate_instance("category", seed).category_of("K")
        _same(
            check_strongly_movable(k),
            naive_movable_wrt(k, k, identity_functor(k)),
            f"category seed {seed}",
        )
        # Over a non-thin base the connectors eta'' are not forced.
        h = terminal_copresheaf(k)
        _same(check_star(h), naive_star(h), f"category seed {seed}")
    for seed in range(100):
        h = generate_instance("copresheaf", seed)["H"].copresheaf
        _same(check_star(h), naive_star(h), f"copresheaf seed {seed}")
        _same(space_movability(h), _naive_space(h), f"copresheaf seed {seed}")


def _unforced_choice(system, res):
    """Whether an SM1 witness picks some r where its least a* has two."""
    return isinstance(res, SM1Witness) and any(
        len(answers) > 1 and answers[1][0] == answers[0][0]
        for a, a2 in res.choices
        for answers in [sm1_answers(system, a, res.alpha_prime[a], a2)]
    )


def test_movability_candidate_order_matches_reference():
    # Posets listed out of order, so the winning mover often has a late ref
    # and a morphism into X can come before X's identity; and categories
    # whose only mover may be the initial object, listed last.
    rng = random.Random("candidate-order")
    movable = 0
    for i in range(200):
        n = rng.randint(4, 9)
        rank = list(range(n))
        rng.shuffle(rank)
        p = rng.uniform(0.1, 0.6)
        pairs = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if rank[a] < rank[b] and rng.random() < p
        ]
        k = build_poset_category(make_poset([f"e{j}" for j in range(n)], pairs))
        got = check_strongly_movable(k)
        assert got == naive_movable_wrt(k, k, identity_functor(k)), f"poset {i}"
        movable += isinstance(got, MovabilityWitness)
    assert 20 < movable < 180
    for seed in range(300):
        k = add_initial_object(generate_instance("category", seed).category_of("K"))
        want = naive_movable_wrt(k, k, identity_functor(k))
        assert check_strongly_movable(k) == want, f"category seed {seed}"


def test_sm1_matches_reference_over_retract_ambients():
    # Most of these witnesses pick an unforced r, so a decider that keeps
    # any r but the least at the least a* fails here.
    unforced = 0
    for seed in range(100):
        system = random_retract_system(random.Random(seed))
        res = check_sm1(system)
        _same(res, naive_sm1(system), f"retract seed {seed}")
        unforced += _unforced_choice(system, res)
    assert unforced >= 50


def test_domination_search_matches_reference():
    """Every budget from 0 to the exhaustive count + 1: the same F, G and
    phi, the same budget stops, and the same functor list prefixes.  Each
    reference is walked once and every budget's answer is read off it."""
    cats = [v_poset_category(), chain(1), chain(2), chain(3), antichain(2),
            antichain(3), diamond()[0], pointed_sets_2()]
    for k, l in itertools.product(cats, repeat=2):
        where = f"{k.object_names} <~ {l.object_names}"
        for weak, search in ((False, find_functorial_domination),
                             (True, find_weak_domination)):
            trace = naive_domination(k, l, weak)
            for budget in itertools.count():
                found, truncated = naive_domination_at(trace, budget)
                got = search(k, l, budget)
                assert (got.found, got.truncated) == (found, truncated), (
                    f"{where} weak={weak} budget {budget}"
                )
                if not truncated:
                    break
            got = search(k, l, budget + 1)
            assert (got.found, got.truncated) == (found, False), where
        functors = naive_functors(k, l)
        for budget in range(len(functors) + 2):
            got = enumerate_functors(k, l, budget)
            assert got.functors == functors[:budget], f"{where} budget {budget}"
            assert got.truncated == (len(functors) > budget), where


def _cyclic(n: int):
    """Z/n as a one-object category whose identity is the last ref: ref r
    is the rotation by r + 1, so two non-identities can compose to the
    identity."""
    return build_monoid_category(
        [f"r{(r + 1) % n}" for r in range(n)],
        n - 1,
        [[(a + b + 1) % n for b in range(n)] for a in range(n)],
    )


def _iso_pair():
    """Two objects and an isomorphism f: a -> b with inverse g, listed
    before the identities."""
    mors = [("f", 0, 1), ("id_a", 0, 0), ("g", 1, 0), ("id_b", 1, 1)]
    comp = {(2, 0): 1, (0, 2): 3, (1, 1): 1, (3, 3): 3,
            (0, 1): 0, (3, 0): 0, (2, 3): 2, (1, 2): 2}
    return validate_category(["a", "b"], mors, [1, 3], comp)


def test_folded_identities_match_reference():
    """Categories whose identities are not refs 0..n-1, or are composites
    of two non-identities: the functor lists, every budget of both
    domination searches, and every pinned G search of an injective F equal
    the generate-and-filter reference."""
    z2, iso = _cyclic(2), _iso_pair()
    cats = [z2, _cyclic(3), iso, product_category([chain(2), z2]).category,
            coslice_category(iso, 0).category, chain(2), v_poset_category()]
    assert all(c.identity != tuple(range(c.n_objects)) for c in cats[:5])
    pinned = 0
    for k, l in itertools.product(cats, repeat=2):
        where = f"{k.object_names}/{k.mor_names} <~ {l.object_names}/{l.mor_names}"
        functors = naive_functors(k, l)
        assert enumerate_functors(k, l).functors == functors, where
        for weak, find in ((False, find_functorial_domination),
                           (True, find_weak_domination)):
            trace = naive_domination(k, l, weak)
            for budget in range(trace[0] + 2):
                got = find(k, l, budget)
                assert (got.found, got.truncated) == naive_domination_at(
                    trace, budget
                ), f"{where} weak={weak} budget {budget}"
        n = l.n_objects
        naive = [g.obj_map + g.mor_map for g in naive_functors(l, k)]
        for f in functors:
            fixed = {o: x for x, o in enumerate(f.obj_map)}
            fixed.update((n + t, m) for m, t in enumerate(f.mor_map))
            if len(fixed) < k.n_objects + k.n_mors:
                continue  # F is not injective
            got = list(search._fill_slots(search._functor_slots(l, k), fixed))
            assert got == [
                (slots[:n], slots[n:])
                for slots in naive
                if all(slots[i] == v for i, v in fixed.items())
            ], (where, fixed)
            pinned += 1
    assert pinned > 20
