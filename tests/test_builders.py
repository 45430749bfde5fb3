import hashlib
import itertools
import random

import pytest

from movcat import builders
from movcat.builders import (
    add_initial_object,
    build_poset_category,
    build_monoid_category,
    canonical_category,
    coslice_category,
    elements_category,
    product_category,
    representable_copresheaf,
)
from movcat.campaign import generate_campaign_instance
from movcat.core import (
    Copresheaf,
    FiniteCategory,
    make_poset,
    validate_category,
    validate_functor,
)
from movcat.dsl import (
    Document,
    make_category_entity,
    parse_document,
    serialize_document,
)
from movcat.errors import NotAMonoid, SizeBoundExceeded, SourceTargetMismatch
from movcat.generators import (
    MONOID_CATALOG,
    GenParams,
    generate_instance,
    random_category,
    random_copresheaf_doc,
    sum_of_representables,
)
from movcat.movability import (
    check_movable_wrt,
    check_strongly_movable,
    space_movability,
)
from movcat.systems import check_star
from util import (
    antichain,
    chain,
    cyclic,
    find_isomorphism,
    naive_coslice,
    naive_elements,
    naive_poset_category,
    naive_product,
    naive_representable,
    v_poset_category,
)


def _revalidate(cat):
    """Builder output passes the category axioms and validates to itself."""
    assert validate_category(
        cat.object_names,
        list(zip(cat.mor_names, cat.mor_dom, cat.mor_cod)),
        cat.identity,
        cat.comp,
    ) == cat


def test_poset_category_counts():
    assert chain(3).n_mors == 6  # 3 ids + 3 comparisons
    assert antichain(4).n_mors == 4  # identities only
    assert v_poset_category().n_mors == 5


def test_monoid_category():
    triv = build_monoid_category(["e"], 0, [[0]])
    assert (triv.n_objects, triv.n_mors) == (1, 1)
    z2 = build_monoid_category(["e", "a"], 0, [[0, 1], [1, 0]])
    assert (z2.n_objects, z2.n_mors) == (1, 2)
    with pytest.raises(NotAMonoid):
        build_monoid_category(["e", "a"], 0, [[0, 1], [1, 1]][::-1])


@pytest.mark.parametrize(
    "unit, table, message",
    [
        (0, [[0, 1], [1]], "table is not square"),
        (0, [[0, 1]], "table is not square"),
        (0, [[0, 1], [1, 2]], "table entry out of range"),
        (0, [[0, 1], [1, -1]], "table entry out of range"),
        (2, [[0, 1], [1, 0]], "unit out of range"),
        (-1, [[0, 1], [1, 0]], "unit out of range"),
    ],
)
def test_monoid_tables_of_the_wrong_shape(unit, table, message):
    with pytest.raises(NotAMonoid, match=message):
        build_monoid_category(["e", "a"], unit, table)


def test_product_needs_a_factor():
    with pytest.raises(ValueError, match="at least one factor"):
        product_category([])


def test_monoid_non_associative():
    # x*y = y except a*a = e: (a*a)*b = e*b = b, a*(a*b) = a*b = b fine;
    # use a table that is genuinely non-associative instead.
    with pytest.raises(NotAMonoid):
        build_monoid_category(
            ["e", "a", "b"], 0,
            [[0, 1, 2], [1, 2, 2], [2, 2, 1]],
        )


def test_product_counts_and_projections():
    c2 = chain(2)
    prod = product_category([c2, c2])
    assert prod.category.n_objects == 4
    assert prod.category.n_mors == 9
    _revalidate(prod.category)
    for i, proj in enumerate(prod.projections):
        validate_functor(prod.category, c2, proj.obj_map, proj.mor_map)
    # hom sizes multiply
    for a in range(4):
        for b in range(4):
            ac, bc = prod.objects[a], prod.objects[b]
            expected = len(c2.hom(ac[0], bc[0])) * len(c2.hom(ac[1], bc[1]))
            assert len(prod.category.hom(a, b)) == expected


def test_product_with_terminal_preserves_counts():
    k = v_poset_category()
    term = chain(1)
    prod = product_category([k, term]).category
    assert (prod.n_objects, prod.n_mors) == (k.n_objects, k.n_mors)
    assert find_isomorphism(k, prod) is not None


def test_product_size_bound(monkeypatch):
    # 100 parallel arrows A -> B: the coslice under A has 101 objects.
    n = 100
    arrows = " ".join(f"arrows f{i} : A -> B ;" for i in range(n))
    doc = parse_document(f"category C {{ objects A B ; {arrows} }}")
    parallel = doc.category_of("C")
    wide = Copresheaf(chain(1), [[f"x{i}" for i in range(n)]], [range(n)])
    c9, c8, flat = chain(9), chain(8), antichain(64)
    over = [
        lambda: product_category([c9, c8]),
        lambda: coslice_category(parallel, 0),
        lambda: elements_category(wide),
        lambda: add_initial_object(flat),
    ]

    def built(*args):
        raise AssertionError("a category over the caps was built")

    # Each builder refuses before it builds its result.
    monkeypatch.setattr(builders, "FiniteCategory", built)
    for build in over:
        with pytest.raises(SizeBoundExceeded):
            build()
    monkeypatch.undo()
    assert add_initial_object(antichain(63)).n_objects == 64


def test_builders_check_the_size_of_their_result(monkeypatch):
    sizes = []
    check = builders.check_size

    def recorded(what, n_objects, n_mors):
        sizes.append((n_objects, n_mors))
        check(what, n_objects, n_mors)

    monkeypatch.setattr(builders, "check_size", recorded)
    c3, v = chain(3), v_poset_category()
    results = [
        product_category([c3, v]).category,
        coslice_category(v, 0).category,
        elements_category(representable_copresheaf(c3, 0)).category,
        add_initial_object(v),
    ]
    assert sizes == [(r.n_objects, r.n_mors) for r in results]


def test_product_codecs_roundtrip():
    prod = product_category([chain(2), chain(3)])
    for m in range(prod.category.n_mors):
        assert prod.morphism_index(prod.morphisms[m]) == m
    for o in range(prod.category.n_objects):
        assert prod.object_index(prod.objects[o]) == o


def _cold_and_warm(factors):
    """The product of ``factors`` built with no shape tables kept, then
    built again from the kept ones."""
    builders._shape_tables.cache_clear()
    cold = product_category(factors)
    hits = builders._shape_tables.cache_info().hits
    warm = product_category(factors)
    assert builders._shape_tables.cache_info().hits == hits + 1
    return cold, warm


def test_product_indices_reject_tuples_that_name_nothing():
    # Both from freshly built shape tables and from kept ones.
    for prod in _cold_and_warm([chain(2), chain(2)]):
        for bad in ([5, 0], [0, -1], [0], [0, 0, 0]):
            with pytest.raises(ValueError):
                prod.object_index(bad)
        for bad in ([3, 0], [0, 3], [0], [0, 0, 0]):
            with pytest.raises(ValueError):
                prod.morphism_index(bad)


def test_product_checks_its_size_before_it_reads_shape_tables():
    builders._shape_tables.cache_clear()
    before = builders._shape_tables.cache_info()
    with pytest.raises(SizeBoundExceeded):
        product_category([chain(9), chain(8)])
    assert builders._shape_tables.cache_info() == before


def test_shape_tables_bound_is_the_documented_one():
    maxsize = builders._shape_tables.cache_info().maxsize
    assert maxsize == builders._SHAPES
    for doc in (builders._shape_tables.__doc__, builders.ProductResult.__doc__):
        assert f"at most {maxsize} shapes" in " ".join(doc.split())


def test_products_of_one_shape_share_only_shape_tables():
    # cyclic(2) and the two-element semilattice each have one object and
    # two morphisms, so both products have the same shape.
    semilattice = build_monoid_category(["e", "a"], 0, [[0, 1], [1, 1]])
    a = product_category([cyclic(2), chain(2)])
    b = product_category([semilattice, chain(2)])
    assert a.objects is b.objects and a.morphisms is b.morphisms
    assert a.category.mor_names is b.category.mor_names
    assert a.category.comp is not b.category.comp
    assert a.category.comp != b.category.comp


def test_coslice_chain2_under_bottom():
    c2 = chain(2)
    res = coslice_category(c2, 0)
    cat = res.category
    assert cat.n_objects == 2  # id_a0 and the comparison a0 <= a1
    assert cat.n_mors == 3
    _revalidate(cat)
    # object id_X (ref of id_a0 is the least) is initial: exactly one
    # morphism to each object.
    initial = res.object_index(c2.identity[0])
    for other in range(cat.n_objects):
        assert len(cat.hom(initial, other)) == 1
    validate_functor(cat, c2, res.forgetful.obj_map, res.forgetful.mor_map)


@pytest.mark.parametrize("build", [coslice_category, representable_copresheaf])
@pytest.mark.parametrize("x", [-1, 3])
def test_builders_refuse_an_object_outside_the_category(build, x):
    # -1 would index the last object, and 3 is one past the end.
    message = f"^no object {x} in a category of 3$"
    with pytest.raises(SourceTargetMismatch, match=message):
        build(chain(3), x)


def test_coslice_of_terminal_is_terminal():
    term = chain(1)
    cat = coslice_category(term, 0).category
    assert (cat.n_objects, cat.n_mors) == (1, 1)


def test_coslice_has_initial_object_everywhere():
    for c in (chain(3), v_poset_category()):
        for x in range(c.n_objects):
            res = coslice_category(c, x)
            initial = res.object_index(c.identity[x])
            for other in range(res.category.n_objects):
                assert len(res.category.hom(initial, other)) == 1


def test_elements_of_representable_iso_to_coslice():
    for c in (chain(3), v_poset_category()):
        for p in range(c.n_objects):
            el = elements_category(representable_copresheaf(c, p)).category
            cos = coslice_category(c, p).category
            assert find_isomorphism(el, cos) is not None


def test_elements_discrete_on_singleton_fibers_over_antichain():
    c = antichain(3)
    h = Copresheaf(c, [["x"], ["y"], ["z"]], [[0], [0], [0]])
    cat = elements_category(h).category
    assert (cat.n_objects, cat.n_mors) == (3, 3)


def test_elements_of_lambda_copresheaf():
    # V-poset base, singleton fibers, both actions land in the top fiber:
    # two non-identity arrows into one object.
    c = v_poset_category()
    h = Copresheaf(
        c, [["x"], ["y"], ["z"]], [[0], [0], [0], [0], [0]]
    )
    cat = elements_category(h).category
    non_id = [m for m in range(cat.n_mors) if not cat.is_identity(m)]
    assert len(non_id) == 2
    assert len({cat.mor_cod[m] for m in non_id}) == 1


def test_add_initial_object():
    for c in (chain(2), v_poset_category()):
        out = add_initial_object(c)
        _revalidate(out)
        bot = out.n_objects - 1
        for other in range(out.n_objects):
            assert len(out.hom(bot, other)) == 1


def test_canonical_category_idempotent_and_normal():
    cat = add_initial_object(v_poset_category())
    canon, perm = canonical_category(cat)
    _revalidate(canon)
    assert canon.identity == tuple(range(canon.n_objects))
    assert all(
        canon.mor_names[i] == f"id_{canon.object_names[i]}"
        for i in range(canon.n_objects)
    )
    again, perm2 = canonical_category(canon)
    assert again == canon
    assert perm2 == tuple(range(canon.n_mors))


def test_representable_copresheaf_valid():
    c = v_poset_category()
    h = representable_copresheaf(c, 0)
    Copresheaf(c, h.fibers, h.action)
    assert len(h.fibers[2]) == 1 and len(h.fibers[1]) == 0


def _multi_hom_categories():
    """Categories with hom-sets of two or more morphisms: the catalogued
    monoids, products with a monoid factor, and the categories of elements
    of sums of two representables on some of those products."""
    monoids = [build_monoid_category(*m) for m in MONOID_CATALOG]
    products = [
        product_category([m, c]).category
        for m in monoids[1:]
        for c in (chain(2), v_poset_category())
    ]
    products += [
        product_category([monoids[4], monoids[5]]).category,
        product_category([chain(2), cyclic(2), chain(2)]).category,
    ]
    elements = [
        elements_category(sum_of_representables(base, p1, p2)).category
        for base in products[::3]
        for p1, p2 in ((0, 0), (0, base.n_objects - 1))
    ]
    return monoids + products + elements


def test_representable_matches_definition_on_multi_morphism_homs():
    # Fibers and action of hom(P, -) at every object P, against the scan
    # of its definition, where post-composition must find a position among
    # several parallel morphisms.
    cats = _multi_hom_categories()
    multi = 0
    for c in cats:
        n = range(c.n_objects)
        multi += any(len(c.hom(a, b)) > 1 for a in n for b in n)
    assert (len(cats), multi) == (36, 29)
    count = 0
    for cat in cats:
        for p in range(cat.n_objects):
            h = representable_copresheaf(cat, p)
            fibers, action = naive_representable(cat, p)
            assert h.fibers == tuple(map(tuple, fibers))
            assert h.action == tuple(map(tuple, action))
            count += 1
    assert count == 172


def _tables(cat):
    return (
        cat.object_names,
        cat.mor_names,
        cat.mor_dom,
        cat.mor_cod,
        cat.identity,
        list(cat.comp.items()),
    )


def _maps(functor):
    return (functor.obj_map, functor.mor_map)


def test_builders_match_definition_reference():
    # Reported witnesses are the lexicographically least, so object order,
    # morphism order and the insertion order of comp are all pinned here.
    posets = [
        make_poset([f"a{i}" for i in range(3)], [(0, 1), (1, 2)]),
        make_poset(["a", "b", "c"], [(0, 2), (1, 2)]),
    ]
    cats = []
    for poset in posets:
        cat = build_poset_category(poset)
        assert _tables(cat) == _tables(naive_poset_category(poset))
        cats.append(cat)
    prod = product_category([chain(3), chain(4)])
    ref_cat, ref_projections = naive_product([chain(3), chain(4)])
    assert _tables(prod.category) == _tables(ref_cat)
    assert [_maps(p) for p in prod.projections] == ref_projections
    cats.append(prod.category)

    copresheaves = []
    for cat in cats:
        for x in range(cat.n_objects):
            res = coslice_category(cat, x)
            ref_cat, ref_forgetful, ref_triples = naive_coslice(cat, x)
            assert _tables(res.category) == _tables(ref_cat)
            assert _maps(res.forgetful) == ref_forgetful
            assert res.morphism_triples == ref_triples
            copresheaves.append(representable_copresheaf(cat, x))
    for seed in range(6):
        doc = random_copresheaf_doc(random.Random(seed), GenParams())
        copresheaves.append(doc["H"].copresheaf)
    for h in copresheaves:
        res = elements_category(h)
        ref_cat, ref_forgetful, ref_triples = naive_elements(h)
        assert _tables(res.category) == _tables(ref_cat)
        assert _maps(res.forgetful) == ref_forgetful
        assert res.morphism_triples == ref_triples


def _assert_comma_is_reference(res, ref):
    """A comma result equals the reference ``(category, forgetful maps,
    triples)`` on whole tables, ``comp``'s insertion order included."""
    ref_cat, ref_forgetful, ref_triples = ref
    assert _tables(res.category) == _tables(ref_cat)
    assert _maps(res.forgetful) == ref_forgetful
    assert res.morphism_triples == ref_triples


def test_comma_matches_reference_on_multi_morphism_bases():
    # The coslice under every object, and the elements of the representable
    # there, over bases with and without hom-sets of two or more morphisms,
    # so that both composite loops of _comma run: the general one, which
    # reads the base's composite, and the thin one.
    thin = multi = count = 0
    for cat in _multi_hom_categories():
        thin += cat.thin
        multi += not cat.thin
        for x in range(cat.n_objects):
            h = representable_copresheaf(cat, x)
            _assert_comma_is_reference(coslice_category(cat, x), naive_coslice(cat, x))
            _assert_comma_is_reference(elements_category(h), naive_elements(h))
            count += 1
    assert (multi, thin, count) == (29, 7, 172)


def test_thin_comma_matches_reference_at_cap_size():
    # The coslice of the chain(8)^2 grid under both upper covers of its
    # bottom, and the elements of the representables there (56 objects /
    # 1008 morphisms each), through the thin composite loop.
    prod = product_category([chain(8), chain(8)])
    grid = prod.category
    assert grid.thin
    for c in ([0, 1], [1, 0]):
        x = prod.object_index(c)
        h = representable_copresheaf(grid, x)
        _assert_comma_is_reference(coslice_category(grid, x), naive_coslice(grid, x))
        _assert_comma_is_reference(elements_category(h), naive_elements(h))


def _drawn_posets():
    """Seeded posets of 1..48 elements in the shapes the check-cap bench
    reads: forests (each element has at most one lower cover) and sparse
    random orders (each i < j kept with probability 0.08), both under a
    random labelling, given as bare edges and as their sorted closed
    strict pairs."""
    rng = random.Random("poset-category-reference")
    for n in list(range(1, 13)) + [16, 24, 33, 40, 47, 48]:
        forest = [(p, i) for i in range(1, n) if (p := rng.randint(-1, i - 1)) >= 0]
        sparse = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.08
        ]
        for edges in (forest, sparse):
            label = list(range(n))
            rng.shuffle(label)
            edges = [(label[i], label[j]) for i, j in edges]
            names = [f"p{i}" for i in range(n)]
            poset = make_poset(names, edges)
            yield poset
            yield make_poset(names, poset.strict_pairs())


def test_poset_category_matches_reference_on_drawn_posets():
    # Every table and the insertion order of comp, on the poset shapes
    # that the reader builds most.
    count = 0
    for poset in _drawn_posets():
        assert _tables(build_poset_category(poset)) == _tables(
            naive_poset_category(poset)
        ), poset
        count += 1
    assert count == 72


def _mixed_factors():
    """Z/2 as a monoid (its identity is the last ref), the one-object
    category, chain(3), V, and four ``random_category`` outputs: two thin
    ones whose ``comp`` is not in (g, f) order and two monoids."""
    randoms = [
        random_category(random.Random(seed), GenParams()) for seed in (3, 5, 8, 10)
    ]
    return [cyclic(2), chain(1), chain(3), v_poset_category(), *randoms]


def test_product_matches_reference_on_mixed_factors():
    # Every table, the insertion order of comp, the names and the
    # projections of products of one, two and three factors, and the round
    # trip through object_index and morphism_index.
    pool = _mixed_factors()
    products = [[c] for c in pool]
    products += [list(p) for p in itertools.product(pool, repeat=2)]
    products += [list(p) for p in itertools.product(pool[:4], repeat=3)]
    products += [[pool[i] for i in pick] for pick in [(2, 5, 6), (7, 0, 5), (4, 3, 0)]]
    for factors in products:
        prod = product_category(factors)
        ref_cat, ref_projections = naive_product(factors)
        assert _tables(prod.category) == _tables(ref_cat)
        assert [_maps(p) for p in prod.projections] == ref_projections
        assert prod.factors == tuple(factors)
        for o, t in enumerate(prod.objects):
            assert prod.object_index(t) == o
        for m, t in enumerate(prod.morphisms):
            assert prod.morphism_index(t) == m


def _written(cat):
    doc = Document()
    doc.add(make_category_entity("C", cat))
    return serialize_document(doc)


def test_product_from_kept_shape_tables_matches_fresh_build():
    # Products of one, two and three factors, one with an object-less
    # factor, and those of test_product_matches_reference_on_mixed_factors:
    # the same result, comp order, names, projections and written text
    # whether the shape tables are built for it or kept from before.
    pool = _mixed_factors()
    empty = FiniteCategory((), (), (), (), (), {})
    products = [[chain(2)], [chain(2), chain(3)], [chain(2), cyclic(2), chain(3)]]
    products += [[chain(3), empty], [empty, cyclic(2)]]
    products += [[c] for c in pool]
    products += [list(p) for p in itertools.product(pool, repeat=2)]
    products += [list(p) for p in itertools.product(pool[:4], repeat=3)]
    products += [[pool[i] for i in pick] for pick in [(2, 5, 6), (7, 0, 5), (4, 3, 0)]]
    for factors in products:
        cold, warm = _cold_and_warm(factors)
        assert warm == cold
        assert len(warm.projections) == len(factors)
        assert _tables(warm.category) == _tables(cold.category)
        assert [_maps(p) for p in warm.projections] == [
            _maps(p) for p in cold.projections
        ]
        assert _written(warm.category) == _written(cold.category)


def test_cap_size_builder_outputs_revalidate():
    # The grid chain(8)^2 (64 objects / 1296 morphisms), and the coslice and
    # the elements of hom(x, -) at x = (0, 1), an upper cover of its bottom
    # (56 objects / 1008 morphisms each).
    prod = product_category([chain(8), chain(8)])
    grid = prod.category
    x = prod.object_index([0, 1])
    coslice = coslice_category(grid, x).category
    elements = elements_category(representable_copresheaf(grid, x)).category
    assert (grid.n_objects, grid.n_mors) == (64, 1296)
    assert (coslice.n_objects, coslice.n_mors) == (56, 1008)
    assert (elements.n_objects, elements.n_mors) == (56, 1008)
    for cat in (grid, coslice, elements):
        _revalidate(cat)


def test_cap_size_deciders_pinned():
    # sha256 over the repr of each decider's result at both upper covers x
    # of the chain(8)^2 grid's bottom: check_star, space_movability and
    # check_strongly_movable on the elements of hom(x, -), then
    # check_strongly_movable on the coslice under x.  At 56 points the
    # quantifier reference is too slow, so this pins the chosen connectors.
    prod = product_category([chain(8), chain(8)])
    h = hashlib.sha256()
    for c in ([0, 1], [1, 0]):
        x = prod.object_index(c)
        rep = representable_copresheaf(prod.category, x)
        results = (
            check_star(rep),
            space_movability(rep),
            check_strongly_movable(elements_category(rep).category),
            check_strongly_movable(coslice_category(prod.category, x).category),
        )
        for r in results:
            h.update(repr(r).encode())
    assert h.hexdigest() == (
        "03341be7e79548d7872eac81674c3fe3e78b54de292440492ce856c966630536"
    )


def _written_categories():
    """The categories whose written text is pinned: the coslices of the
    chain(8)^2 grid under both upper covers of its bottom, the categories of
    elements of the representables at those covers, chain(8) times an
    8-element forest and times a sparse 8-element order, and the generated
    categories of seeds 0..199."""
    prod = product_category([chain(8), chain(8)])
    covers = [prod.object_index(c) for c in ([0, 1], [1, 0])]
    cats = [coslice_category(prod.category, x).category for x in covers]
    cats += [
        elements_category(representable_copresheaf(prod.category, x)).category
        for x in covers
    ]
    names = [f"b{i}" for i in range(8)]
    forest = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (6, 7)]
    sparse = [(0, 4), (1, 4), (1, 5), (2, 6), (3, 6), (4, 7), (5, 7)]
    for pairs in (forest, sparse):
        order = build_poset_category(make_poset(names, pairs))
        cats.append(product_category([chain(8), order]).category)
    cats += [generate_instance("category", s).category_of("K") for s in range(200)]
    return cats


def test_written_categories_pinned():
    # sha256 over the written text of each category above, in that order.
    # The text lists arrows and compose lines in ref order, so this pins the
    # writer's order as well as the builders' tables.
    h = hashlib.sha256()
    for cat in _written_categories():
        doc = Document()
        doc.add(make_category_entity("C", cat))
        h.update(serialize_document(doc).encode())
    assert h.hexdigest() == (
        "76310cbc7aae84b37d1d7f9cb2e5166be408ae8175d7d5066e3d45e2a6a9a08e"
    )


def _law_categories(seeds):
    """The categories that the ``coslice`` and ``product`` laws build: each
    generated category with its coslice under every object, and both
    factors with their product."""
    for s in seeds:
        k = generate_campaign_instance("coslice", s).category_of("K")
        yield k
        for x in range(k.n_objects):
            yield coslice_category(k, x).category
        doc = generate_campaign_instance("product", s)
        factors = [doc.category_of("K1"), doc.category_of("K2")]
        yield from factors
        yield product_category(factors).category


def test_mors_into_matches_scan():
    # mors_into, mors_out_of and hom(a, b) for every pair of objects,
    # empty hom-sets included, against one scan over the morphisms.
    cats = _written_categories()
    cats += [add_initial_object(c) for c in (chain(3), v_poset_category())]
    cats += [canonical_category(c)[0] for c in cats[-2:]]
    cats += _law_categories(range(50))
    for cat in cats:
        into = [[] for _ in range(cat.n_objects)]
        out = [[] for _ in range(cat.n_objects)]
        hom = {}
        for m in range(cat.n_mors):
            d, c = cat.mor_dom[m], cat.mor_cod[m]
            into[c].append(m)
            out[d].append(m)
            hom.setdefault((d, c), []).append(m)
        for a in range(cat.n_objects):
            assert cat.mors_into(a) == tuple(into[a])
            assert cat.mors_out_of(a) == tuple(out[a])
            for b in range(cat.n_objects):
                assert cat.hom(a, b) == tuple(hom.get((a, b), ()))


def test_elements_built_once_per_copresheaf(monkeypatch):
    calls = []
    comma = builders._comma

    def counted(*args):
        calls.append(args[-1])
        return comma(*args)

    monkeypatch.setattr(builders, "_comma", counted)
    prod = product_category([chain(3), chain(3)])
    x = prod.object_index([0, 1])
    h = representable_copresheaf(prod.category, x)
    res = elements_category(h)
    assert space_movability(h) == check_movable_wrt(res.forgetful)
    assert elements_category(h) is res
    assert len(calls) == 1
    # An equal but distinct value builds its own.
    again = representable_copresheaf(prod.category, x)
    assert again == h and again is not h
    assert elements_category(again) == res
    assert len(calls) == 2


def test_result_indices_match_their_tables():
    prod = product_category([chain(3), chain(3)])
    x = prod.object_index([0, 1])
    cos = coslice_category(prod.category, x)
    for i, f in enumerate(cos.objects):
        assert cos.object_index(f) == i
    for r, t in enumerate(cos.morphism_triples):
        assert cos.morphism_index(*t) == r
    el = elements_category(representable_copresheaf(prod.category, x))
    for i, (q, e) in enumerate(el.objects):
        assert el.object_index((q, e)) == i
    # A missing key raises ValueError, as tuple.index does.
    with pytest.raises(ValueError):
        cos.object_index(prod.category.identity[0])
    with pytest.raises(ValueError):
        cos.morphism_index(0, 0, prod.category.n_mors)
    with pytest.raises(ValueError):
        el.object_index((0, 0))


def test_comma_morphism_index_rejects_keys_that_name_nothing():
    # On a coslice and on a category of elements: every triple round-trips,
    # and a source out of range (a negative one names no row from the end),
    # an eta that does not leave the source's base object, an eta out of
    # range, or a wrong target raises ValueError naming the key.
    base = product_category([cyclic(2), chain(3)]).category
    results = [
        coslice_category(base, 0),
        elements_category(sum_of_representables(base, 0, 1)),
    ]
    for res in results:
        n, over = res.category.n_objects, res.forgetful.obj_map
        for r, t in enumerate(res.morphism_triples):
            assert res.morphism_index(*t) == r
        misses = [(-1, 0, 0), (n, 0, 0), (n, n, base.identity[0])]
        for i, b in enumerate(over):
            misses += [(i, i, -1), (i, i, base.n_mors)]
            misses += [(i, 0, e) for e in range(base.n_mors) if base.mor_dom[e] != b]
        for i, j, e in res.morphism_triples:
            misses += [(i, k, e) for k in (-1, j + 1, j - 1, n) if k != j]
            misses.append((i - n, j, e))
        assert len(misses) > 10 * n
        for key in misses:
            with pytest.raises(ValueError) as miss:
                res.morphism_index(*key)
            assert str(miss.value) == f"{key!r} is not in the result"
