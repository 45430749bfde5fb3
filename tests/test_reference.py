"""Every decider and search against its transcription in ``util``.

Results are compared field by field with each dict as its item list, so a
decider that picks a different (still valid) witness, reports a different
defeating challenge, or fills a dict in another order fails here even when
the campaign verdicts stay the same.
"""

import dataclasses
import itertools
import random

from movcat import campaign, movability, search, systems
from movcat.builders import (
    add_initial_object,
    build_poset_category,
    coslice_category,
    elements_category,
    product_category,
    representable_copresheaf,
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
    StarWitness,
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
    cyclic,
    diamond,
    iso_pair,
    naive_domination,
    naive_domination_at,
    naive_functors,
    naive_movable_wrt,
    naive_sm1,
    naive_sm2,
    naive_star,
    pointed_sets_2,
    posets_up_to_iso,
    random_retract_system,
    slot_row,
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


def test_folded_identities_match_reference():
    """Categories whose identities are not refs 0..n-1, or are composites
    of two non-identities: the functor lists, every budget of both
    domination searches, and every pinned G search of an injective F equal
    the generate-and-filter reference."""
    z2, iso = cyclic(2), iso_pair()
    cats = [z2, cyclic(3), iso, product_category([chain(2), z2]).category,
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
        naive = naive_functors(l, k)
        for f in functors:
            fixed = {o: x for x, o in enumerate(f.obj_map)}
            fixed.update((n + t, m) for m, t in enumerate(f.mor_map))
            if len(fixed) < k.n_objects + k.n_mors:
                continue  # F is not injective
            got = list(search._fill_slots(search._functor_slots(l, k), fixed))
            assert got == [
                slot_row(g)
                for g in naive
                if all((g.obj_map + g.mor_map)[i] == v for i, v in fixed.items())
            ], (where, fixed)
            pinned += 1
    assert pinned > 20


def _preorder_categories(n):
    """Every preorder on n labelled objects, as a thin category whose
    arrows are listed by descending (dom, cod): isomorphic objects make
    several candidates win at once, so the order in which they are tried
    shows."""
    off = [(a, b) for a in range(n) for b in range(n) if a != b]
    for bits in range(1 << len(off)):
        rel = {(a, a) for a in range(n)}
        rel |= {pair for i, pair in enumerate(off) if bits >> i & 1}
        if any((a, c) not in rel for a, b in rel for b2, c in rel if b == b2):
            continue
        arrows = sorted(rel, reverse=True)
        ref = {pair: i for i, pair in enumerate(arrows)}
        yield validate_category(
            [f"o{a}" for a in range(n)],
            [(f"m{a}{b}", a, b) for a, b in arrows],
            [ref[a, a] for a in range(n)],
            {
                (ref[b, c], ref[a, b]): ref[a, c]
                for a, b in arrows
                for b2, c in arrows
                if b == b2
            },
        )


def test_thin_bodies_match_the_search(monkeypatch):
    # Over a thin target the deciders answer by reachability bitsets; here
    # each bitset body is compared, whole result against whole result, with
    # the first-winner search it stands in for.  Each corpus's positive and
    # negative counts are pinned, so defeat tables are compared too.
    counts = {}

    def movable(corpus, phi):
        assert phi.target.thin
        got = movability._movable_thin(phi)
        _same(got, movability._movable_search(phi), corpus)
        key = corpus, isinstance(got, MovabilityWitness)
        counts[key] = counts.get(key, 0) + 1

    def star(corpus, h):
        assert h.base.thin
        got = systems._star_thin(h)
        _same(got, systems._star_search(h), corpus)
        key = corpus, isinstance(got, StarWitness)
        counts[key] = counts.get(key, 0) + 1

    # Every thin category that the eight laws decide over seeds 0..299.
    def decide(k):
        if k.thin:
            movable("laws", identity_functor(k))
        return check_strongly_movable(k)

    monkeypatch.setattr(campaign, "check_strongly_movable", decide)
    for law in campaign.THEOREMS:
        for seed in range(300):
            assert campaign.evaluate_instance(
                law, generate_campaign_instance(law, seed)
            )[0]
    monkeypatch.undo()
    # Every poset on at most five elements; the forgetful functors of its
    # coslices and of its representables' categories of elements.
    for n in range(1, 6):
        for rel in posets_up_to_iso(n):
            cat = build_poset_category(make_poset([f"p{i}" for i in range(n)], rel))
            movable("posets", identity_functor(cat))
            for x in range(n):
                movable("forgetful", coslice_category(cat, x).forgetful)
                rep = representable_copresheaf(cat, x)
                movable("forgetful", elements_category(rep).forgetful)
                if n <= 4:
                    star("representables", rep)
    # Every preorder on at most three objects, with the same functors.
    for n in range(1, 4):
        for cat in _preorder_categories(n):
            movable("preorders", identity_functor(cat))
            for x in range(n):
                movable("preorders", coslice_category(cat, x).forgetful)
                rep = representable_copresheaf(cat, x)
                movable("preorders", elements_category(rep).forgetful)
                star("preorders", rep)
    # The cap-size inputs: the chain(8)^2 grid, and at both upper covers x
    # of its bottom the coslice under x and the elements of hom(x, -).
    prod = product_category([chain(8), chain(8)])
    movable("cap", identity_functor(prod.category))
    for c in ([0, 1], [1, 0]):
        x = prod.object_index(c)
        rep = representable_copresheaf(prod.category, x)
        elements = elements_category(rep)
        movable("cap", identity_functor(coslice_category(prod.category, x).category))
        movable("cap", identity_functor(elements.category))
        movable("cap", elements.forgetful)
        star("cap", rep)
    # The projections of the product law's products onto their thin
    # factors; a non-thin product gives a mover several arrows into X.
    for seed in range(300):
        doc = generate_campaign_instance("product", seed)
        res = product_category([doc.category_of("K1"), doc.category_of("K2")])
        for pr in res.projections:
            if pr.target.thin:
                movable("projections", pr)
    # The copresheaves of the two system laws over a thin ambient.
    for law in ("sm-bridge", "star-bridge"):
        for seed in range(300):
            h = generate_campaign_instance(law, seed)["S"].cone.copresheaf
            if h.base.thin:
                star("systems", h)
    assert counts == {
        ("laws", True): 2976,
        ("laws", False): 214,
        ("posets", True): 45,
        ("posets", False): 42,
        ("forgetful", True): 798,
        ("preorders", True): 319,
        ("preorders", False): 3,
        ("representables", True): 84,
        ("cap", True): 9,
        ("projections", True): 457,
        ("projections", False): 17,
        ("systems", True): 283,
        ("systems", False): 215,
    }
