import itertools
import random

import pytest

from movcat.builders import (
    build_monoid_category,
    build_poset_category,
    coslice_category,
    product_category,
    representable_copresheaf,
)
from movcat.campaign import generate_campaign_instance
from movcat.core import (
    Copresheaf,
    FiniteCategory,
    identity_functor,
    identity_nat_trans,
    make_poset,
    validate_functor,
    validate_nat_trans,
)
from movcat.errors import SourceTargetMismatch, VerificationFailed
from movcat.generators import GenParams, generate_instance, random_category
from movcat.movability import (
    Counterexample,
    MovabilityWitness,
    check_movable_wrt,
    check_strongly_movable,
    factor_transport,
    postcompose_transfer,
    product_transport,
    space_movability,
    weak_domination_transfer,
    witness_valid,
    witness_valid_wrt,
)
from movcat.search import find_weak_domination
from util import (
    chain,
    cyclic,
    naive_movable_wrt,
    naive_product_transport,
    naive_strongly_movable,
    pointed_sets_2,
    v_poset_category,
)


def test_chain3_strongly_movable_with_bottom_movers():
    c3 = chain(3)
    res = check_strongly_movable(c3)
    assert isinstance(res, MovabilityWitness)
    assert witness_valid(c3, res)
    # The bottom element moves every object; the search picks the least
    # working mover, which is the bottom (object 0) for the non-initial
    # objects of a chain.
    assert res.movers == (0, 0, 0)


def test_v_poset_not_strongly_movable_at_top():
    v = v_poset_category()
    res = check_strongly_movable(v)
    assert isinstance(res, Counterexample)
    assert res.obj == 2  # the top, hit by two incomparable arrows
    # every candidate (M, m) with m: M -> top is defeated
    assert res.defeats
    assert all(v.mor_cod[d.mover_mor] == 2 for d in res.defeats)


def test_counterexample_defeats_are_genuine():
    v = v_poset_category()
    res = check_strongly_movable(v)
    for d in res.defeats:
        p = d.defeating_p
        m = d.mover_mor
        dom_p = v.mor_dom[p]
        assert all(
            v.comp[(p, u)] != m for u in v.hom(d.mover, dom_p)
        )


def test_pointed_sets_movable():
    ps = pointed_sets_2()
    res = check_strongly_movable(ps)
    assert isinstance(res, MovabilityWitness)
    assert witness_valid(ps, res)


def test_movable_wrt_identity_matches_strong():
    for cat in (chain(3), v_poset_category(), pointed_sets_2()):
        strong = check_strongly_movable(cat)
        rel = check_movable_wrt(identity_functor(cat))
        assert type(strong) is type(rel)
        if isinstance(strong, MovabilityWitness):
            assert strong == rel


def test_movable_wrt_terminal_target_always_witness():
    term = chain(1)
    for cat in (v_poset_category(), chain(3)):
        phi = validate_functor(cat, term, [0] * cat.n_objects, [0] * cat.n_mors)
        res = check_movable_wrt(phi)
        assert isinstance(res, MovabilityWitness)
        assert witness_valid_wrt(phi, res)


def test_movable_wrt_requires_matching_functor():
    # Phi carries K and L, so the mismatches left are those of a second
    # functor or transformation.  F must start at Phi's target; the type
    # check comes before the (here bad) witness is looked at.
    c3 = chain(3)
    one = identity_functor(c3)
    w = check_strongly_movable(c3)
    with pytest.raises(SourceTargetMismatch):
        postcompose_transfer(one, _corrupt(w), identity_functor(chain(2)))
    # G maps L back to K, but phi is 1_L, not a transformation G.F => 1_K.
    k, l = chain(2), c3
    f = validate_functor(k, l, [0, 1], [0, 1, 3])
    g = validate_functor(l, k, [0, 1, 1], [0, 1, 1, 2, 2, 1])
    with pytest.raises(SourceTargetMismatch, match="G.F => 1_K"):
        weak_domination_transfer(f, g, identity_nat_trans(one), w)


def test_naive_oracle_agreement():
    params = GenParams(max_objects=4, max_morphisms=16, max_fiber=3)
    for seed in range(120):
        rng = random.Random(f"oracle:{seed}")
        cat = random_category(rng, params)
        got = isinstance(check_strongly_movable(cat), MovabilityWitness)
        assert got == naive_strongly_movable(cat), f"seed {seed}"


def test_naive_relative_oracle_agreement():
    term = chain(1)
    params = GenParams(max_objects=4, max_morphisms=16, max_fiber=3)
    for seed in range(40):
        rng = random.Random(f"rel:{seed}")
        cat = random_category(rng, params)
        phi = validate_functor(cat, term, [0] * cat.n_objects, [0] * cat.n_mors)
        got = isinstance(check_movable_wrt(phi), MovabilityWitness)
        want = isinstance(naive_movable_wrt(cat, term, phi), MovabilityWitness)
        assert got == want, f"seed {seed}"


def test_naive_relative_oracle_agreement_on_projections_coslices_dominations():
    # Functors that are neither identities nor maps to a point: the two
    # projections of a product, the forgetful functor of every coslice and
    # the F and G of a weak domination.  The whole result must match the
    # reference, defeat tables included, and every witness must verify.
    outcomes = set()
    for seed in range(60):
        a = generate_instance("category", 2 * seed).category_of("K")
        b = generate_instance("category", 2 * seed + 1).category_of("K")
        phis = list(product_category([a, b]).projections)
        phis += [coslice_category(a, x).forgetful for x in range(a.n_objects)]
        doc = generate_campaign_instance("transfer", seed)
        found = find_weak_domination(doc.category_of("K"), doc.category_of("L")).found
        if found is not None:
            phis += found[:2]
        for phi in phis:
            got = check_movable_wrt(phi)
            assert got == naive_movable_wrt(phi.source, phi.target, phi), seed
            if isinstance(got, MovabilityWitness):
                assert witness_valid_wrt(phi, got)
            outcomes.add(type(got))
    assert outcomes == {MovabilityWitness, Counterexample}


def test_space_movability_of_representable():
    # Elements of a representable has an initial object, hence movable.
    for base in (chain(3), v_poset_category()):
        for p in range(base.n_objects):
            res = space_movability(representable_copresheaf(base, p))
            assert isinstance(res, MovabilityWitness)


def test_space_movability_counterexample():
    # Lambda-shaped copresheaf over the V poset: the top element of the
    # elements category is hit from both legs with no common mover.
    v = v_poset_category()
    h = Copresheaf(v, [["x"], ["y"], ["z"]], [[0], [0], [0], [0], [0]])
    res = space_movability(h)
    assert isinstance(res, Counterexample)


def test_witness_valid_rejects_corruption():
    c3 = chain(3)
    w = check_strongly_movable(c3)
    assert witness_valid(c3, w)
    bad = MovabilityWitness(w.movers, w.mover_mors, tuple(0 for _ in w.lifts))
    assert not witness_valid(c3, bad)
    assert not witness_valid(c3, MovabilityWitness((), (), ()))
    # Along the collapse of chain(2) onto a point every lift solves its
    # equation, so only the typing of m_y = id_x: x -> x rejects this one.
    c2, pt = chain(2), chain(1)
    collapse = validate_functor(c2, pt, (0, 0), (0, 0, 0))
    mistyped = MovabilityWitness((0, 0), (0, 0), (0, 0, 0))
    assert not witness_valid_wrt(collapse, mistyped)
    # In the two-element group the lift e of a lies in its hom-set, but
    # a . e = a is not e, so only the lift equation rejects it.
    z2 = build_monoid_category(["e", "a"], 0, [[0, 1], [1, 0]])
    w = check_strongly_movable(z2)
    assert w == MovabilityWitness((0,), (0,), (0, 1))
    assert not witness_valid(z2, MovabilityWitness((0,), (0,), (0, 0)))


def test_postcompose_transfer_identity_keeps_witness():
    c3 = chain(3)
    w = check_strongly_movable(c3)
    out = postcompose_transfer(identity_functor(c3), w, identity_functor(c3))
    assert out == w


def test_postcompose_transfer_to_terminal():
    c3 = chain(3)
    term = chain(1)
    w = check_strongly_movable(c3)
    f = validate_functor(c3, term, [0, 0, 0], [0] * c3.n_mors)
    out = postcompose_transfer(identity_functor(c3), w, f)
    assert witness_valid_wrt(f, out)
    assert all(u == 0 for u in out.lifts)


def test_postcompose_transfer_rejects_bad_witness():
    c3 = chain(3)
    w = check_strongly_movable(c3)
    bad = MovabilityWitness(w.movers, w.mover_mors, tuple(0 for _ in w.lifts))
    with pytest.raises(VerificationFailed):
        postcompose_transfer(identity_functor(c3), bad, identity_functor(c3))


def _corrupt(w: MovabilityWitness) -> MovabilityWitness:
    return MovabilityWitness(w.movers, w.mover_mors, tuple(0 for _ in w.lifts))


@pytest.mark.parametrize("transport", ["product", "factor", "transfer"])
def test_transports_reject_corrupted_witness(transport):
    # The campaign laws rely on this: each transport verifies what it is
    # given and what it returns, raising VerificationFailed.
    k1, k2 = chain(3), chain(2)
    prod = product_category([k1, k2])
    w1, w2 = check_strongly_movable(k1), check_strongly_movable(k2)
    one = identity_functor(k1)
    run = {
        "product": lambda: product_transport(prod, [_corrupt(w1), w2]),
        "factor": lambda: factor_transport(
            prod, _corrupt(product_transport(prod, [w1, w2])), 0
        ),
        "transfer": lambda: weak_domination_transfer(
            one, one, identity_nat_trans(one), _corrupt(w1)
        ),
    }[transport]
    with pytest.raises(VerificationFailed):
        run()


def test_weak_domination_transfer_identity_roundtrip():
    c3 = chain(3)
    one = identity_functor(c3)
    w = check_strongly_movable(c3)
    out = weak_domination_transfer(one, one, identity_nat_trans(one), w)
    assert out == w


def test_weak_domination_transfer_retraction():
    # K = chain(2) sits inside L = chain(3) as the bottom two objects;
    # G collapses the top of L back down.  G.F = 1_K on the nose.
    k, l = chain(2), chain(3)
    f = validate_functor(k, l, [0, 1], [0, 1, 3])
    g = validate_functor(l, k, [0, 1, 1], [0, 1, 1, 2, 2, 1])
    gf = validate_functor(k, k, [0, 1], [0, 1, 2])
    phi = validate_nat_trans([0, 1], gf, identity_functor(k))
    w_l = check_strongly_movable(l)
    w_k = weak_domination_transfer(f, g, phi, w_l)
    assert witness_valid(k, w_k)


def test_weak_domination_transfer_shape_checks():
    k, l = chain(2), chain(3)
    f = validate_functor(k, l, [0, 1], [0, 1, 3])
    w_l = check_strongly_movable(l)
    with pytest.raises(SourceTargetMismatch):
        weak_domination_transfer(
            f, identity_functor(k), identity_nat_trans(identity_functor(k)), w_l
        )


def test_product_transport_and_factor_transport():
    k1, k2 = chain(2), chain(3)
    prod = product_category([k1, k2])
    w1 = check_strongly_movable(k1)
    w2 = check_strongly_movable(k2)
    wp = product_transport(prod, [w1, w2])
    assert witness_valid(prod.category, wp)
    assert factor_transport(prod, wp, 0) is not None
    assert factor_transport(prod, wp, 1) is not None


def test_factor_transport_recovers_valid_factor_witnesses():
    k1, k2 = chain(2), pointed_sets_2()
    prod = product_category([k1, k2])
    wp = check_strongly_movable(prod.category)
    assert isinstance(wp, MovabilityWitness)
    for i, fac in enumerate(prod.factors):
        wf = factor_transport(prod, wp, i)
        assert witness_valid(fac, wf)


def test_factor_transport_with_an_object_less_factor():
    # chain(2) x (empty) is empty, and strongly movable with the empty
    # witness.  Its object-less factor gets the empty witness back; chain(2)
    # has no inclusion into the empty product.
    empty = FiniteCategory((), (), (), (), (), {})
    prod = product_category([chain(2), empty])
    w = check_strongly_movable(prod.category)
    assert w == MovabilityWitness((), (), ())
    assert factor_transport(prod, w, 1) == w
    assert witness_valid(empty, factor_transport(prod, w, 1))
    with pytest.raises(SourceTargetMismatch, match="empty product"):
        factor_transport(prod, w, 0)


@pytest.mark.parametrize("i0", [-1, 2])
def test_factor_transport_refuses_an_index_outside_the_factors(i0):
    prod = product_category([chain(2), chain(3)])
    wp = check_strongly_movable(prod.category)
    message = f"^no factor {i0} in a product of 2$"
    with pytest.raises(SourceTargetMismatch, match=message):
        factor_transport(prod, wp, i0)


def test_product_with_v_factor_not_movable():
    # The V poset is not movable, and neither is any product containing it:
    # the factor transport direction is contrapositive evidence.
    prod = product_category([v_poset_category(), chain(2)])
    res = check_strongly_movable(prod.category)
    assert isinstance(res, Counterexample)


def test_product_transport_matches_reference():
    # Movable factors: the one-object category, Z/2 as a monoid (identity
    # last), chain(3), pointed sets and random ones, monoids among them.
    pool = [chain(1), cyclic(2), chain(3), pointed_sets_2()]
    pool += [random_category(random.Random(seed), GenParams()) for seed in (3, 5, 10)]
    witnesses = [check_strongly_movable(c) for c in pool]
    assert all(isinstance(w, MovabilityWitness) for w in witnesses)
    picks = list(itertools.product(range(len(pool)), repeat=2))
    picks += list(itertools.product(range(4), repeat=3))
    picks += [(2, 4, 5), (6, 1, 4)]
    for pick in picks:
        prod = product_category([pool[i] for i in pick])
        ws = [witnesses[i] for i in pick]
        out = product_transport(prod, ws)
        assert out == naive_product_transport(prod, ws)
        assert witness_valid(prod.category, out)


def test_product_transport_rejects_wrong_arity():
    prod = product_category([chain(2), chain(2)])
    w = check_strongly_movable(chain(2))
    with pytest.raises(SourceTargetMismatch):
        product_transport(prod, [w])


def test_bottomed_poset_always_movable():
    # Any poset with a least element is strongly movable via the bottom.
    p = make_poset(["bot", "a", "b", "c"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    cat = build_poset_category(p)
    res = check_strongly_movable(cat)
    assert isinstance(res, MovabilityWitness)
    assert set(res.movers) == {0}
