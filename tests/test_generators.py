import random

import pytest

from movcat import generators
from movcat.builders import build_poset_category
from movcat.campaign import generate_campaign_instance
from movcat.core import MAX_MORPHISMS, Copresheaf, make_poset, validate_category
from movcat.dsl import serialize_document
from movcat.errors import NoDesignatedCoproducts, ParamsOutOfRange
from movcat.generators import (
    GenParams,
    KINDS,
    MONOID_CATALOG,
    generate_instance,
    poset_has_downset_minima,
    random_category,
    random_join_semilattice,
    random_poset,
    semilattice_designation,
)
from movcat.systems import validate_system

PARAMS = GenParams(max_objects=4, max_morphisms=16, max_fiber=3)


def test_deterministic_byte_identical():
    for kind in KINDS:
        for seed in (0, 7, 41):
            a = serialize_document(generate_instance(kind, seed, PARAMS))
            b = serialize_document(generate_instance(kind, seed, PARAMS))
            assert a == b


def test_seeds_vary_output():
    outs = {
        serialize_document(generate_instance("category", s, PARAMS))
        for s in range(20)
    }
    assert len(outs) > 5


def test_params_out_of_range():
    with pytest.raises(ParamsOutOfRange):
        generate_instance("poset", 0, GenParams(max_objects=10**6))
    with pytest.raises(ParamsOutOfRange):
        generate_instance("poset", 0, GenParams(max_objects=0))
    with pytest.raises(ParamsOutOfRange):
        generate_instance("nonsense", 0, PARAMS)


@pytest.mark.parametrize("max_morphisms", [0, MAX_MORPHISMS + 1])
def test_morphism_cap_out_of_range(max_morphisms):
    with pytest.raises(ParamsOutOfRange, match=f"max_morphisms={max_morphisms}"):
        generate_instance("poset", 0, GenParams(max_morphisms=max_morphisms))


def test_random_poset_flags():
    for seed in range(30):
        rng = random.Random(seed)
        assert random_poset(rng, 5, directed=True).directed
        assert not random_poset(rng, 5, directed=False).directed
        forest = random_poset(rng, 5, forest=True)
        assert poset_has_downset_minima(forest)


def test_random_category_always_valid():
    for seed in range(60):
        rng = random.Random(f"cat:{seed}")
        cat = random_category(rng, PARAMS)
        validate_category(
            cat.object_names,
            list(zip(cat.mor_names, cat.mor_dom, cat.mor_cod)),
            cat.identity,
            cat.comp,
        )
        assert cat.n_objects <= PARAMS.max_objects
        assert cat.n_mors <= PARAMS.max_morphisms


@pytest.mark.parametrize("params", [GenParams(20, 24, 3), GenParams(5, 2, 3)])
def test_drawn_categories_are_within_both_caps(params):
    # Thin draws of up to 20 elements, and monoids of up to 4, exceed these
    # morphism caps unless they are drawn again.
    for seed in range(300):
        cat = generate_instance("category", seed, params).category_of("K")
        assert cat.n_objects <= params.max_objects
        assert cat.n_mors <= params.max_morphisms


def test_fixed_size_draws_keep_the_callers_caps(monkeypatch):
    # The product law's factors and the categories that a domination pair
    # draws with random_category are drawn at the smaller of their fixed
    # caps and the caller's; a pair's K x M branch is fixed-size.
    params = GenParams(2, 3, 3)
    factors, drawn = [], []

    def recorded(rng, p, **kw):
        drawn.append(random_category(rng, p, **kw))
        return drawn[-1]

    monkeypatch.setattr(generators, "random_category", recorded)
    for seed in range(300):
        doc = generate_campaign_instance("product", seed, params)
        factors += [doc.category_of("K1"), doc.category_of("K2")]
        generate_campaign_instance("transfer", seed, params)
    assert len(factors) == 600 and len(drawn) > 100
    for cat in factors + drawn:
        assert cat.n_objects <= params.max_objects
        assert cat.n_mors <= params.max_morphisms


class _KleinEveryTime(random.Random):
    """A stream that draws a monoid every time, the catalog's last one."""

    def random(self):
        return 0.6

    def randrange(self, n):
        return n - 1


def test_random_category_falls_back_to_the_one_object_category():
    assert len(MONOID_CATALOG[-1][0]) == 4
    cat = random_category(_KleinEveryTime(), GenParams(5, 3, 3))
    assert (cat.object_names, cat.mor_names) == (("e0",), ("id_e0",))


def test_copresheaf_documents_valid():
    for seed in range(40):
        doc = generate_instance("copresheaf", seed, PARAMS)
        ent = doc["H"]
        h = ent.copresheaf
        Copresheaf(h.base, h.fibers, h.action)


def test_system_documents_valid():
    saw_nondirected = False
    for seed in range(60):
        doc = generate_instance("system", seed, PARAMS)
        ent = doc["S"]
        sys = ent.system
        validate_system(sys.ambient, sys.index, sys.at, sys.bond)
        saw_nondirected |= not sys.directed
    assert saw_nondirected


def test_domination_documents_valid():
    for seed in range(40):
        doc = generate_instance("domination-pair", seed, PARAMS)
        assert doc.category_of("K") is not None
        assert doc.category_of("L") is not None


def test_join_semilattice_and_designation():
    for seed in range(30):
        rng = random.Random(f"sl:{seed}")
        poset = random_join_semilattice(rng, 4)
        assert poset.directed  # union closure gives a top element
        cat = build_poset_category(poset)
        des = semilattice_designation(cat, poset)
        for a in range(cat.n_objects):
            for b in range(cat.n_objects):
                j, i1, i2 = des.pair(a, b)
                assert i1 in cat.hom(a, j) and i2 in cat.hom(b, j)


def test_semilattice_designation_without_join():
    poset = make_poset(["a", "b"], [])
    with pytest.raises(NoDesignatedCoproducts, match=r"no join for \(a, b\)"):
        semilattice_designation(build_poset_category(poset), poset)
