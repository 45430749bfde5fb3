import hashlib
import tracemalloc

import pytest

from movcat import search
from movcat.campaign import generate_campaign_instance
from movcat.core import (
    Functor,
    NaturalTransformation,
    compose_functors,
    identity_functor,
    validate_category,
)
from movcat.errors import (
    NoDesignatedCoproducts,
    SourceTargetMismatch,
    UniversalPropertyFails,
    VerificationFailed,
)
from movcat.generators import semilattice_designation
from movcat.movability import (
    MovabilityWitness,
    check_strongly_movable,
    weak_domination_transfer,
    witness_valid,
)
from movcat.search import (
    DEFAULT_BUDGET,
    coproduct_coslice_domination,
    enumerate_functors,
    enumerate_nat_trans,
    find_functorial_domination,
    find_weak_domination,
    validate_designation,
)
from util import (
    antichain,
    chain,
    diamond,
    naive_functors,
    naive_nat_trans_count,
    slot_row,
    v_poset_category,
)


def test_enumerate_functors_from_terminal():
    term = chain(1)
    for l in (chain(3), v_poset_category()):
        res = enumerate_functors(term, l)
        assert not res.truncated
        assert len(res.functors) == l.n_objects


def test_enumerate_functors_matches_naive():
    for k, l in ((chain(2), chain(2)), (chain(2), chain(3)), (v_poset_category(), chain(2))):
        fast = enumerate_functors(k, l)
        assert not fast.truncated
        naive = naive_functors(k, l)
        assert len(fast.functors) == len(naive)
        assert set(fast.functors) == set(naive)
    assert len(enumerate_functors(chain(2), chain(2)).functors) == 3


def test_enumerate_functors_budget():
    res = enumerate_functors(chain(2), chain(3), budget=0)
    assert res.truncated and res.functors == []
    res1 = enumerate_functors(chain(2), chain(3), budget=1)
    assert res1.truncated and len(res1.functors) == 1


def test_enumerate_nat_trans_matches_naive():
    k, l = chain(2), chain(3)
    fs = enumerate_functors(k, l).functors
    for f in fs:
        for g in fs:
            got = enumerate_nat_trans(f, g)
            assert len(got) == naive_nat_trans_count(f, g)
            for nt in got:
                assert nt.source == f and nt.target == g


def test_enumerate_nat_trans_requires_parallel():
    f = identity_functor(chain(2))
    g = identity_functor(chain(3))
    with pytest.raises(SourceTargetMismatch):
        enumerate_nat_trans(f, g)


def test_domination_of_self_is_identity():
    k = chain(2)
    res = find_functorial_domination(k, k)
    assert res.found is not None and not res.truncated
    f, g = res.found
    assert f == identity_functor(k) and g == identity_functor(k)


def test_retractions_refuse_a_pair_that_is_not_a_retraction(monkeypatch):
    # Each pair (F, G) is re-checked for G . F = 1_K before it is yielded;
    # here the composite is made to differ from the identity.
    monkeypatch.setattr(search, "compose_functors", lambda g, f: None)
    with pytest.raises(VerificationFailed, match="retraction constraint violated"):
        find_functorial_domination(chain(2), chain(2))


def test_chain2_dominated_by_chain3():
    k, l = chain(2), chain(3)
    res = find_functorial_domination(k, l)
    assert res.found is not None and not res.truncated
    f, g = res.found
    assert compose_functors(g, f) == identity_functor(k)


def test_v_not_dominated_by_chain3():
    res = find_functorial_domination(v_poset_category(), chain(3))
    assert res.found is None and not res.truncated
    weak = find_weak_domination(v_poset_category(), chain(3))
    assert weak.found is None and not weak.truncated


def test_v_not_weakly_dominated_by_chains():
    # The V poset is not movable, so it cannot be weakly dominated by any
    # movable category; chains are movable.
    for n in (1, 2, 3, 4):
        res = find_weak_domination(v_poset_category(), chain(n))
        assert res.found is None and not res.truncated


def test_strict_domination_implies_weak_hit():
    k, l = chain(2), chain(3)
    res = find_weak_domination(k, l)
    assert res.found is not None
    f, g, phi = res.found
    assert phi.components == k.identity
    assert compose_functors(g, f) == identity_functor(k)


def test_weak_domination_budget_truncation():
    res = find_weak_domination(v_poset_category(), chain(3), budget=2)
    assert res.found is None and res.truncated


def test_weak_domination_one_budget_for_both_phases():
    # V <~ chain(3) emits 14 candidates in the strict phase and 112 in the
    # weak phase; both phases draw on one budget.
    k, l = v_poset_category(), chain(3)
    assert find_weak_domination(k, l, budget=112).truncated
    assert find_weak_domination(k, l, budget=125).truncated
    res = find_weak_domination(k, l, budget=126)
    assert res.found is None and not res.truncated


def _count_walks(monkeypatch) -> tuple[list, list]:
    """Hook the search so that it records the (source, target) of every
    slot build and of every unpinned walk; pinned G searches pass pins."""
    built, walked, direction = [], [], {}
    functor_slots, fill_slots = search._functor_slots, search._fill_slots

    def counted_slots(src, tgt):
        slots = functor_slots(src, tgt)
        built.append((src, tgt))
        direction[id(slots)] = (src, tgt)
        return slots

    def counted_fill(slots, fixed=None):
        if not fixed:
            walked.append(direction[id(slots)])
        return fill_slots(slots, fixed)

    monkeypatch.setattr(search, "_functor_slots", counted_slots)
    monkeypatch.setattr(search, "_fill_slots", counted_fill)
    return built, walked


def test_weak_phase_enumerates_g_once_per_call(monkeypatch):
    # The weak phase walks the functors L -> K once and replays them for
    # every later F; the strict phase's pinned G searches do not count.
    # Both phases share one build of the G slots.
    k, l = v_poset_category(), chain(3)
    built, walked = _count_walks(monkeypatch)
    first = find_weak_domination(k, l)
    assert first.found is None and not first.truncated
    assert walked.count((l, k)) == 1
    assert built.count((l, k)) == 1
    # Nothing outlives a call: a second call walks again and agrees.
    assert find_weak_domination(k, l) == first
    assert walked.count((l, k)) == 2
    assert built.count((l, k)) == 2


def test_each_search_walks_f_once_per_call(monkeypatch):
    # The strict phase walks the functors K -> L once; the weak phase
    # replays that walk rather than walking K -> L again.
    k, l = v_poset_category(), chain(3)
    built, walked = _count_walks(monkeypatch)
    for find in (find_weak_domination, find_functorial_domination):
        built.clear()
        walked.clear()
        first = find(k, l)
        assert first.found is None and not first.truncated
        assert walked.count((k, l)) == 1
        assert built.count((k, l)) == 1
        # A second call walks again and agrees.
        assert find(k, l) == first
        assert walked.count((k, l)) == 2
        assert built.count((k, l)) == 2


def test_weak_phase_yields_every_triple_in_nested_walk_order(monkeypatch):
    # Drained to the end, the weak phase looks for a phi on exactly the
    # (F, G) with every hom_K(G(F(x)), x) non-empty, and yields every
    # (F, G, phi) of the plain nested walk in its order.
    searched = []
    nat_trans_components = search._iter_nat_trans_components

    def recorded(gf, one_k):
        searched.append(gf)
        return nat_trans_components(gf, one_k)

    monkeypatch.setattr(search, "_iter_nat_trans_components", recorded)
    for k, l in ((chain(3), diamond()[0]), (diamond()[0], chain(3)),
                 (antichain(2), antichain(3)), (v_poset_category(),) * 2):
        searched.clear()
        budget = search._Budget(DEFAULT_BUDGET)
        slots = search._functor_slots(k, l), search._functor_slots(l, k)
        n_strict = sum(1 for _ in search._retractions(k, l, *slots, budget))
        triples = list(search._weak_dominations(k, l, budget))[n_strict:]
        one_k = identity_functor(k)
        live = [
            (f, g, compose_functors(g, f))
            for f in enumerate_functors(k, l).functors
            for g in enumerate_functors(l, k).functors
            if all(k.hom(g.obj_map[f.obj_map[x]], x) for x in range(k.n_objects))
        ]
        assert searched == [gf for _, _, gf in live]
        assert triples == [
            (f, g, phi) for f, g, gf in live for phi in enumerate_nat_trans(gf, one_k)
        ]
        assert triples


PIN_BUDGETS = (0, 1, 2, 3, 5, 8, 13, 50, 126, 500, DEFAULT_BUDGET)


def test_domination_results_pinned():
    # sha256 over repr of both searches at every budget above, on the K, L
    # of transfer seeds 0..299 and two exhaustive negatives: the searches'
    # hits and budget stops (ordering included) must not move.
    pairs = [
        (doc.category_of("K"), doc.category_of("L"))
        for doc in (generate_campaign_instance("transfer", s) for s in range(300))
    ]
    pairs += [(antichain(4), chain(4)), (v_poset_category(), chain(5))]
    h = hashlib.sha256()
    for k, l in pairs:
        for budget in PIN_BUDGETS:
            h.update(repr(find_weak_domination(k, l, budget)).encode())
            h.update(repr(find_functorial_domination(k, l, budget)).encode())
    assert h.hexdigest() == (
        "9676ead67e3bfa7069a46e222ef25c348a95b577f8296cd23b0c6f6e05d244c9"
    )


def test_weak_domination_transfers_movability():
    k, l = chain(2), chain(3)
    f, g, phi = find_weak_domination(k, l).found
    w_l = check_strongly_movable(l)
    w_k = weak_domination_transfer(f, g, phi, w_l)
    assert witness_valid(k, w_k)


def test_semilattice_designation_on_diamond():
    cat, poset = diamond()
    des = semilattice_designation(cat, poset)
    j, i1, i2 = des.pair(1, 2)
    assert j == 3  # a v b = top
    assert i1 in cat.hom(1, 3) and i2 in cat.hom(2, 3)
    assert des.pair(0, 1)[0] == 1  # bot v a = a
    # fold of the cocone (a -> top, b -> top) is the identity on top
    f = cat.hom(1, 3)[0]
    g = cat.hom(2, 3)[0]
    assert des.copair[(1, 2, f, g)] == cat.identity[3]


def test_designation_trivial_on_terminal():
    term = chain(1)
    des = validate_designation(term, {(0, 0): (0, 0, 0)})
    assert des.pair(0, 0) == (0, 0, 0)


def test_designation_missing_pair():
    term = chain(1)
    des = validate_designation(term, {})
    with pytest.raises(NoDesignatedCoproducts):
        des.pair(0, 0)


@pytest.mark.parametrize("a, b", [(-1, 0), (7, 0), (0, -1), (0, 7)])
def test_designation_pair_refuses_an_object_outside_the_base(a, b):
    doc = generate_campaign_instance("coproduct-coslice", 1)
    des = doc["coproducts_P"].designation
    assert des.base.n_objects == 7
    message = f"^no object {a or b} in a category of 7$"  # the ref that is not 0
    with pytest.raises(SourceTargetMismatch, match=message):
        des.pair(a, b)


def test_designation_universal_property_fails():
    v = v_poset_category()
    ia = v.hom(0, 2)[0]
    # claim (a, a) has coproduct c with both injections a -> c: the cocone
    # (id_a, id_a) into a has no mediating morphism c -> a.
    with pytest.raises(UniversalPropertyFails):
        validate_designation(v, {(0, 0): (2, ia, ia)})


def test_designation_mistyped_injection():
    v = v_poset_category()
    with pytest.raises(UniversalPropertyFails):
        validate_designation(v, {(0, 1): (2, v.identity[0], v.hom(1, 2)[0])})


def test_coproduct_coslice_domination_on_diamond():
    cat, poset = diamond()
    des = semilattice_designation(cat, poset)
    res = coproduct_coslice_domination(cat, des, 1, 2)
    f, g, phi = res.f, res.g, res.phi
    gf = compose_functors(g, f)
    assert phi.source == gf
    assert phi.target == identity_functor(res.coslice_sum.category)
    # coslices have initial objects, hence are strongly movable; the
    # domination transfers a witness onto the coslice over the coproduct.
    from movcat.builders import product_category
    from movcat.movability import product_transport

    w1 = check_strongly_movable(res.coslice_factors[0].category)
    w2 = check_strongly_movable(res.coslice_factors[1].category)
    assert isinstance(w1, MovabilityWitness) and isinstance(w2, MovabilityWitness)
    wp = product_transport(res.product, [w1, w2])
    wk = weak_domination_transfer(f, g, phi, wp)
    assert witness_valid(res.coslice_sum.category, wk)


def test_coproduct_coslice_domination_wrong_base():
    cat, poset = diamond()
    des = semilattice_designation(cat, poset)
    with pytest.raises(SourceTargetMismatch):
        coproduct_coslice_domination(chain(2), des, 0, 1)


def test_forward_check_keeps_every_pinned_functor_in_order():
    # Pruning object slots on empty homs may only cut branches that emit
    # nothing: each pinned search, pinned as ``_retractions`` pins it for
    # an injective F, yields exactly the naive functors that agree with the
    # pins, in the naive (lexicographic) order.
    pairs = [
        (doc.category_of("K"), doc.category_of("L"))
        for doc in (generate_campaign_instance("transfer", s) for s in range(300))
    ]
    pairs.append((v_poset_category(), chain(5)))
    searched = emitted = 0
    for k, l in pairs:
        n = l.n_objects
        naive = naive_functors(l, k)
        for f in naive_functors(k, l):
            fixed = {o: x for x, o in enumerate(f.obj_map)}
            fixed.update((n + t, m) for m, t in enumerate(f.mor_map))
            if len(fixed) < k.n_objects + k.n_mors:
                continue  # F is not injective
            got = list(search._fill_slots(search._functor_slots(l, k), fixed))
            want = [
                slot_row(g)
                for g in naive
                if all((g.obj_map + g.mor_map)[i] == v for i, v in fixed.items())
            ]
            assert got == want, (k.object_names, l.object_names, fixed)
            searched += 1
            emitted += len(got)
    assert searched > 1000 and emitted > 4000


def test_budget_spends_in_bulk_to_the_same_unit():
    exact = search._Budget(5)
    exact.spend(2)
    exact.spend(3)
    assert exact.left == 0
    with pytest.raises(search._Exhausted):
        exact.spend()
    with pytest.raises(search._Exhausted):
        search._Budget(5).spend(6)
    zero = search._Budget(0)
    zero.spend(0)
    with pytest.raises(search._Exhausted):
        zero.spend(1)


def test_empty_category_searches():
    # No slots to fill: the backtracker yields the empty assignment once,
    # and a weak phase over no G leaves empty buffers.
    empty = validate_category([], [], [], {})
    none = Functor(empty, empty, (), ())
    assert enumerate_functors(empty, empty) == search.FunctorEnumeration([none], False)
    assert enumerate_functors(empty, chain(2)) == search.FunctorEnumeration(
        [Functor(empty, chain(2), (), ())], False
    )
    hit = (none, none, NaturalTransformation(none, none, ()))
    assert find_weak_domination(empty, empty) == search.DominationResult(hit, False)
    assert find_weak_domination(empty, empty, budget=1).truncated
    assert find_weak_domination(empty, empty, budget=2).found == hit
    # One F and no retraction or G: two units, then an exhaustive miss.
    assert find_weak_domination(empty, chain(2), budget=1).truncated
    res = find_weak_domination(empty, chain(2), budget=2)
    assert res.found is None and not res.truncated


def test_weak_phase_memory_is_flat_in_g():
    # V <~ antichain(10) walks 3^10 = 59049 functors G and finds no triple;
    # the G are kept as flat ref arrays, not as Functor values.
    tracemalloc.start()
    try:
        res = find_weak_domination(v_poset_category(), antichain(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.found is None and not res.truncated
    assert peak < 6_000_000
