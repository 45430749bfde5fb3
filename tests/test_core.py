import hashlib
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
from movcat.core import (
    Copresheaf,
    compose_functors,
    identity_functor,
    identity_nat_trans,
    make_poset,
    validate_category,
    validate_functor,
    validate_nat_trans,
)
from movcat.errors import (
    InvalidCopresheaf,
    SourceTargetMismatch,
    ValidationFailed,
    Violation,
)
from movcat.generators import (
    MONOID_CATALOG,
    GenParams,
    random_category,
    random_poset,
    sum_of_representables,
)
from util import (
    chain,
    cyclic,
    finset_retract,
    naive_category_violations,
    naive_copresheaf_violations,
    naive_poset_relation,
    pointed_sets_2,
    v_poset_category,
)


def test_validate_category_accepts_chain():
    cat = chain(3)
    assert cat.n_objects == 3
    assert cat.n_mors == 6


def test_missing_composite_rejected():
    # Two composable non-identity arrows without a recorded composite.
    mors = [("id_A", 0, 0), ("id_B", 1, 1), ("id_C", 2, 2), ("f", 0, 1), ("g", 1, 2)]
    comp = {}
    for m, (_, d, c) in enumerate(mors):
        comp[(c, m)] = m
        comp[(m, d)] = m
    with pytest.raises(ValidationFailed) as e:
        validate_category(["A", "B", "C"], mors, [0, 1, 2], comp)
    assert "MissingComposite" in e.value.codes


def test_illegal_composite_rejected():
    mors = [("id_A", 0, 0), ("id_B", 1, 1), ("f", 0, 1)]
    comp = {(1, 2): 2, (2, 0): 2, (0, 0): 0, (1, 1): 1, (2, 1): 2}
    with pytest.raises(ValidationFailed) as e:
        validate_category(["A", "B"], mors, [0, 1], comp)
    assert "IllegalComposite" in e.value.codes


def test_identity_law_broken():
    mors = [("id_A", 0, 0), ("e", 0, 0)]
    comp = {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}  # id.e = id is wrong
    with pytest.raises(ValidationFailed) as e:
        validate_category(["A"], mors, [0], comp)
    assert "IdentityLawBroken" in e.value.codes


def test_assoc_broken():
    # e.e = a, a.e = e, e.a = e, a.a = a is not associative:
    # (e.e).e = a.e = e but e.(e.e) = e.a = e ... pick a genuinely broken one.
    mors = [("id_A", 0, 0), ("e", 0, 0), ("a", 0, 0)]
    comp = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
            (1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 2}
    # (e.e).e = a.e = 1? comp[(2,1)] = 1 = e; e.(e.e) = e.a = 1 = e; try deeper:
    # (e.e).a = a.a = a; e.(e.a) = e.e = a  -> consistent; force breakage:
    comp[(2, 2)] = 1
    with pytest.raises(ValidationFailed) as e:
        validate_category(["A"], mors, [0], comp)
    assert "AssocBroken" in e.value.codes


@pytest.mark.parametrize(
    "mors, identity, violations",
    [
        (
            [("id_A", 0, 0), ("id_B", 1, 1), ("f", 0, 2), ("g", -1, 1)],
            [0, 1],
            [
                ("BadRef", "morphism 2 has dom/cod out of range"),
                ("BadRef", "morphism 3 has dom/cod out of range"),
            ],
        ),
        (
            [("id_A", 0, 0), ("id_B", 1, 1)],
            [0],
            [("BadRef", "identity table size != object count")],
        ),
    ],
)
def test_validate_category_rejects_bad_refs(mors, identity, violations):
    # The ref checks run before any composite is read, and list every
    # violation they find.
    with pytest.raises(ValidationFailed) as e:
        validate_category(["A", "B"], mors, identity, {})
    assert e.value.violations == [Violation(*v) for v in violations]
    assert str(e.value) == "category: " + "; ".join(f"{c}: {d}" for c, d in violations)


@pytest.mark.parametrize(
    "obj_map, mor_map, detail",
    [([0, 3], [0, 1, 3], "object 1"), ([0, 1], [0, 1, 6], "morphism 2")],
)
def test_functor_rejects_refs_out_of_range(obj_map, mor_map, detail):
    with pytest.raises(ValidationFailed) as e:
        validate_functor(chain(2), chain(3), obj_map, mor_map)
    assert e.value.violations == [Violation("BadRef", detail)]
    assert str(e.value) == f"functor: BadRef: {detail}"


def test_nat_trans_rejects_non_parallel_functors_and_wrong_component_count():
    c2, c3 = chain(2), chain(3)
    f = validate_functor(c2, c3, [0, 1], [0, 1, 3])
    other = validate_functor(c2, chain(2), [0, 1], [0, 1, 2])
    with pytest.raises(SourceTargetMismatch) as e:
        validate_nat_trans([0, 1], f, other)
    assert str(e.value) == "functors are not parallel"
    with pytest.raises(ValidationFailed) as e:
        validate_nat_trans([0], f, f)
    assert e.value.violations == [Violation("BadRef", "component count mismatch")]
    assert str(e.value) == "nat-trans: BadRef: component count mismatch"


def test_make_poset_rejects_pairs_out_of_range():
    with pytest.raises(ValidationFailed) as e:
        make_poset(["a", "b"], [(0, 1), (0, 2), (-1, 1)])
    assert e.value.violations == [
        Violation("BadRef", "leq pair (0, 2)"),
        Violation("BadRef", "leq pair (-1, 1)"),
    ]
    assert str(e.value) == "poset: BadRef: leq pair (0, 2); BadRef: leq pair (-1, 1)"


def test_hom_partitions_morphisms():
    cat = v_poset_category()
    seen = []
    for a in range(cat.n_objects):
        for b in range(cat.n_objects):
            seen.extend(cat.hom(a, b))
    assert sorted(seen) == list(range(cat.n_mors))


def test_functor_validation_and_errors():
    c2, c3 = chain(2), chain(3)
    f = validate_functor(c2, c3, [0, 1], [0, 1, 3])
    assert compose_functors(identity_functor(c3), f) == f
    with pytest.raises(ValidationFailed) as e:
        validate_functor(c2, c3, [0, 1], [0, 1, 4])  # wrong cod
    assert "DomCodBroken" in e.value.codes
    with pytest.raises(ValidationFailed) as e:
        validate_functor(c2, c3, [0, 1], [3, 1, 3])  # identity not preserved
    assert "IdentityNotPreserved" in e.value.codes
    for obj_map, mor_map in (([0], [0, 1, 3]), ([0, 1], [0, 1])):
        with pytest.raises(ValidationFailed) as e:
            validate_functor(c2, c3, obj_map, mor_map)
        assert e.value.violations == [Violation("BadRef", "map size mismatch")]


def test_functor_composition_not_preserved():
    from util import pointed_sets_2

    ps = pointed_sets_2()
    src = chain(3)
    # Both short arrows go to the collapse endomorphism of P2, whose
    # composite is itself, but the long arrow goes to the identity.
    with pytest.raises(ValidationFailed) as e:
        validate_functor(src, ps, [1, 1, 1], [1, 1, 1, 4, 1, 4])
    assert "CompositionNotPreserved" in e.value.codes


def test_nat_trans_valid_and_errors():
    c2, c3 = chain(2), chain(3)
    f = validate_functor(c2, c3, [0, 1], [0, 1, 3])
    g = validate_functor(c2, c3, [1, 2], [1, 2, 5])
    nt = validate_nat_trans([3, 5], f, g)
    assert nt.components == (3, 5)
    with pytest.raises(ValidationFailed) as e:
        validate_nat_trans([3, 4], f, g)  # wrong endpoint types
    assert "ComponentTypeError" in e.value.codes
    assert identity_nat_trans(f).components == (0, 1)


def test_nat_trans_naturality_square_broken():
    # Into a non-thin target the square can genuinely fail.
    from util import pointed_sets_2

    ps = pointed_sets_2()
    c2 = chain(2)
    f = validate_functor(c2, ps, [1, 1], [1, 1, 1])  # constant P2 via id
    g = validate_functor(c2, ps, [1, 1], [1, 1, 4])  # sends arrow to collapse
    with pytest.raises(ValidationFailed) as e:
        validate_nat_trans([1, 1], f, g)
    assert "NaturalitySquareBroken" in e.value.codes


def test_copresheaf_functoriality_checked():
    c2 = chain(2)
    good = Copresheaf(c2, [["x"], ["y"]], [[0], [0], [0]])
    assert good.action[2][0] == 0
    with pytest.raises(InvalidCopresheaf):
        # identity action on a two-element fiber is not the identity map
        Copresheaf(c2, [["x", "y"], ["z"]], [[0, 0], [0], [0, 0]])


def test_copresheaf_constructor_checks_its_tables():
    # Over a0 < a1 < a2: id_a1 swaps its fiber, and le1_2 . le0_1 sends x to
    # w while le0_2 sends it to v.
    c3 = chain(3)
    fibers = [["x"], ["y", "z"], ["w", "v"]]
    action = [[0], [1, 0], [0, 1], [0], [1], [0, 1]]
    with pytest.raises(InvalidCopresheaf) as built:
        Copresheaf(c3, fibers, action)
    assert built.value.violations == [
        Violation("FunctorialityBroken", "id of a1"),
        Violation("FunctorialityBroken", "(g, f)=(id_a1, id_a1)"),
        Violation("FunctorialityBroken", "(g, f)=(le1_2, id_a1)"),
        Violation("FunctorialityBroken", "(g, f)=(id_a1, le0_1)"),
        Violation("FunctorialityBroken", "(g, f)=(le1_2, le0_1)"),
    ]
    good = Copresheaf(c3, fibers, [[0], [0, 1], [0, 1], [0], [0], [0, 1]])
    assert good == Copresheaf(c3, tuple(fibers), good.action)
    assert good.fibers == (("x",), ("y", "z"), ("w", "v"))


def _broken_copresheaves(n, seed):
    """``n`` raw copresheaf tables, each a valid one (a representable or a
    sum of two representables, on a chain, V, a monoid or a product with a
    monoid factor) with one to three mutations: an entry made negative or
    too large, a map shortened or lengthened, a fiber emptied together with
    the maps out of it, an entry changed within range, an identity broken,
    a duplicate name, or a fiber or map dropped from the tables."""
    rng = random.Random(seed)
    cats = [chain(3), v_poset_category()]
    cats += [build_monoid_category(*m) for m in MONOID_CATALOG[1:6]]
    cats.append(product_category([cyclic(2), chain(2)]).category)
    valid = []
    for cat in cats:
        for p in range(cat.n_objects):
            valid.append(representable_copresheaf(cat, p))
        valid.append(sum_of_representables(cat, 0, cat.n_objects - 1))
    for _ in range(n):
        h = rng.choice(valid)
        base = h.base
        fibers = [list(f) for f in h.fibers]
        action = [list(a) for a in h.action]
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(9)
            m = rng.randrange(base.n_mors)
            size = len(fibers[base.mor_cod[m]])
            if kind in (0, 1, 2) and action[m]:
                x = rng.randrange(len(action[m]))
                if kind == 0:
                    action[m][x] = -rng.randint(1, 3)
                elif kind == 1:
                    action[m][x] = size + rng.randrange(3)
                elif size > 1:
                    action[m][x] = (action[m][x] + rng.randrange(1, size)) % size
            elif kind == 3:
                if action[m] and rng.random() < 0.5:
                    action[m].pop()
                else:
                    action[m].append(0)
            elif kind == 4:
                q = rng.randrange(base.n_objects)
                fibers[q] = []
                for e in base.mors_out_of(q):
                    action[e] = []
            elif kind == 5:
                a = rng.randrange(base.n_objects)
                row = action[base.identity[a]]
                if len(row) > 1:
                    row[0], row[-1] = row[-1], row[0]
            elif kind == 6:
                q = rng.randrange(base.n_objects)
                if len(fibers[q]) > 1:
                    fibers[q][-1] = fibers[q][0]
            elif kind == 7 and rng.random() < 0.2:
                (fibers if rng.random() < 0.5 else action).pop()
                break
        yield base, fibers, action


def test_copresheaf_violations_match_reference_on_drawn_tables():
    # The whole violation list, in order, against one scan per check.
    seen = set()
    for base, fibers, action in _broken_copresheaves(600, "copresheaf-violations"):
        expected = naive_copresheaf_violations(base, fibers, action)
        for code, detail in expected:
            words = detail.split(" ")
            seen.add((code, words[-1] if code == "BadRef" else words[0]))
        if not expected:
            seen.add(("valid", ""))
            Copresheaf(base, fibers, action)
            continue
        with pytest.raises(InvalidCopresheaf) as built:
            Copresheaf(base, fibers, action)
        assert built.value.violations == [Violation(*v) for v in expected]
    assert seen == {
        ("valid", ""),
        ("BadRef", "mismatch"),
        ("BadRef", "partial"),
        ("BadRef", "range"),
        ("DuplicateName", "fiber"),
        ("FunctorialityBroken", "id"),
        ("FunctorialityBroken", "(g,"),
    }


def test_poset_antisymmetry():
    with pytest.raises(ValidationFailed) as e:
        make_poset(["a", "b"], [(0, 1), (1, 0)])
    assert "AntisymmetryBroken" in e.value.codes


def test_poset_closure_and_directedness():
    p = make_poset(["a", "b", "c"], [(0, 1), (1, 2)])
    assert p.leq(0, 2)  # transitive closure applied
    assert p.directed
    fork = make_poset(["a", "b", "c"], [(0, 1), (0, 2)])
    assert not fork.directed


def _with_parallel_arrow(cat):
    """Raw tables of ``cat`` plus an arrow ``x`` parallel to its last one,
    composing as that arrow does except under identities, so that retargets
    and broken identities can stay well typed and reach the identity and
    associativity passes."""
    objs = list(cat.object_names)
    mors = list(zip(cat.mor_names, cat.mor_dom, cat.mor_cod))
    f, x = cat.n_mors - 1, cat.n_mors
    mors.append(("x", cat.mor_dom[f], cat.mor_cod[f]))
    comp = dict(cat.comp)
    ids = set(cat.identity)
    for (g, h), gh in cat.comp.items():
        value = x if gh == f and (g in ids or h in ids) else gh
        for key in itertools.product(*((m, x) if m == f else (m,) for m in (g, h))):
            comp.setdefault(key, value)
    return objs, mors, list(cat.identity), comp


def _mutants(n, seed):
    """``n`` raw tables, each a base table with one to three mutations:
    drop a composite, retarget one, add a non-composable or out-of-range
    key, or break an identity (in the identity table or in a composite)."""
    rng = random.Random(seed)
    left_zeros = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]
    bases = [
        _with_parallel_arrow(product_category([chain(3), chain(3)]).category),
        _with_parallel_arrow(chain(4)),
        _with_parallel_arrow(build_monoid_category(["e", "a", "b"], 0, left_zeros)),
    ]
    for i in range(n):
        objs, mors, identity, base = bases[i % len(bases)]
        identity, comp = list(identity), dict(base)
        n_mor = len(mors)
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(4)
            if kind == 0:
                del comp[rng.choice(list(comp))]
            elif kind == 1:
                g, f = key = rng.choice([k for k in base if k in comp])
                typed = [m for m in range(n_mor)
                         if mors[m][1:] == (mors[f][1], mors[g][2])]
                comp[key] = rng.choice(typed if rng.random() < 0.8 else range(n_mor))
            elif kind == 2:
                g, f = rng.randrange(n_mor), rng.randrange(n_mor)
                if rng.random() < 0.5:
                    g = rng.choice([-1, n_mor, n_mor + 3])
                comp[(g, f)] = rng.randrange(n_mor)
            elif rng.random() < 0.2:
                identity[rng.randrange(len(identity))] = rng.randrange(n_mor)
            else:
                f = rng.randrange(n_mor)
                _, d, c = mors[f]
                parallel = [m for m in range(n_mor) if mors[m][1:] == (d, c)]
                key = (identity[c], f) if rng.random() < 0.5 else (f, identity[d])
                comp[key] = rng.choice(parallel)
        yield objs, mors, identity, comp


def test_violation_lists_pinned():
    # sha256 over every mutant's violations, (code, detail) in order; a
    # valid mutant contributes "ok".  Recorded on the all-pairs validator.
    h = hashlib.sha256()
    codes = set()
    for objs, mors, identity, comp in _mutants(600, 10):
        try:
            validate_category(objs, mors, identity, comp)
            h.update(b"ok\n")
        except ValidationFailed as exc:
            found = [(v.code, v.detail) for v in exc.violations]
            codes.update(code for code, _ in found)
            h.update(repr(found).encode() + b"\n")
    assert codes == {
        "BadRef", "MissingComposite", "IllegalComposite",
        "IdentityLawBroken", "AssocBroken",
    }
    assert h.hexdigest() == (
        "83cd8a4a261e94d3d6ed8bb5c50cfc220c477ac0f6c423840868640ae3e2c7f8"
    )


def _poset_outcome(elements, pairs):
    try:
        return list(make_poset(elements, pairs).relation), []
    except ValidationFailed as exc:
        return [], [(v.code, v.detail) for v in exc.violations]


def _closure_inputs():
    """(elements, pairs): seeded random relations on 1..12 elements, cycles
    and loops included, then 48-element forests and sparse orders listed as
    the check-cap bench lists them (closed strict pairs, sorted, under a
    random labelling) and as their bare generating edges."""
    rng = random.Random("make-poset-closure")
    for _ in range(3000):
        n = rng.randint(1, 12)
        p = rng.uniform(0.02, 0.35)
        pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < p]
        rng.shuffle(pairs)
        yield [f"e{i}" for i in range(n)], pairs
    n = 48
    names = [f"p{i}" for i in range(n)]
    for t in range(40):
        if t % 2 == 0:
            edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.85]
        else:
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.08
            ]
        label = list(range(n))
        rng.shuffle(label)
        edges = [(label[i], label[j]) for i, j in edges]
        closed, _ = naive_poset_relation(names, edges)
        yield names, sorted((i, j) for i, j in closed if i != j)
        yield names, edges


def test_closure_order_matches_reference():
    # The relation's iteration order and the AntisymmetryBroken list both
    # follow the closure's insertion sequence; both are pinned here.
    outcomes = {"ok": 0, "cyclic": 0}
    for elements, pairs in _closure_inputs():
        want = naive_poset_relation(elements, pairs)
        assert _poset_outcome(elements, pairs) == want, (elements, pairs)
        outcomes["cyclic" if want[1] else "ok"] += 1
    assert outcomes["ok"] > 1000 and outcomes["cyclic"] > 1000


def _raw(cat):
    mors = list(zip(cat.mor_names, cat.mor_dom, cat.mor_cod))
    return list(cat.object_names), mors, list(cat.identity), dict(cat.comp)


def _retargeted(raw, rng):
    """``raw`` with one to three composites moved to another morphism of
    the same hom-set, so every table stays well typed."""
    objs, mors, identity, comp = raw
    comp = dict(comp)
    hom = {}
    for m, (_, d, c) in enumerate(mors):
        hom.setdefault((d, c), []).append(m)
    keys = [k for k in comp if len(hom[(mors[k[1]][1], mors[k[0]][2])]) > 1]
    for _ in range(rng.randint(1, 3)):
        g, f = key = rng.choice(keys)
        comp[key] = rng.choice(
            [m for m in hom[(mors[f][1], mors[g][2])] if m != comp[key]]
        )
    return objs, mors, identity, comp


def _validator_outcome(objs, mors, identity, comp):
    try:
        validate_category(objs, mors, identity, comp)
        return []
    except ValidationFailed as exc:
        return [(v.code, v.detail) for v in exc.violations]


def test_validator_matches_all_triples_reference():
    rng = random.Random("validate-category-reference")
    params = GenParams()
    thin = [
        build_poset_category(random_poset(rng, 8)) for _ in range(20)
    ] + [
        product_category([chain(3), v_poset_category()]).category,
        coslice_category(build_poset_category(random_poset(rng, 6)), 0).category,
    ]
    monoids = [build_monoid_category(*entry) for entry in MONOID_CATALOG]
    generated = [random_category(random.Random(seed), params) for seed in range(150)]
    # Categories with hom-sets of two or more morphisms, at one object and
    # at several, where retargets stay well typed.
    multi = [m for m in monoids if m.n_mors > 1] + [
        pointed_sets_2(),
        finset_retract(3, 2),
        product_category([monoids[-1], chain(2)]).category,
        product_category([pointed_sets_2(), chain(2)]).category,
        coslice_category(pointed_sets_2(), 1).category,
    ]
    tables = [_raw(c) for c in thin + monoids + generated + multi]
    for cat in multi:
        raw = _raw(cat)
        tables += [_retargeted(raw, rng) for _ in range(4 if cat.n_mors > 40 else 30)]
    codes = set()
    for objs, mors, identity, comp in tables:
        want = naive_category_violations(objs, mors, identity, comp)
        assert _validator_outcome(objs, mors, identity, comp) == want, (objs, mors)
        codes.update(code for code, _ in want)
    assert codes == {"IdentityLawBroken", "AssocBroken"}


def test_validator_count_shortcut_falls_back_to_the_scan():
    # Dropping one composite of the 3-chain and adding one key that is not
    # a composable pair keeps the key count equal to the number of
    # composable pairs, so only the stray key can tell the validator to
    # look for the missing one.  Each list must equal the all-pairs
    # reference: MissingComposite first, then IllegalComposite.
    objs, mors, identity, comp = _raw(chain(3))
    assert len(comp) == 10
    strays = [(3, 4), (4, 3), (5, 0), (0, 5), (9, 9), (-1, 0)]
    for key, value in comp.items():
        for stray in strays:
            mutant = {k: v for k, v in comp.items() if k != key}
            mutant[stray] = value
            want = naive_category_violations(objs, mors, identity, mutant)
            assert [code for code, _ in want] == [
                "MissingComposite", "IllegalComposite",
            ]
            assert _validator_outcome(objs, mors, identity, mutant) == want
    # Counts match and every key is composable, but le1_2 . le0_1 is
    # given le0_1, a morphism of the wrong type.
    mutant = {**comp, (5, 3): 3}
    want = naive_category_violations(objs, mors, identity, mutant)
    assert want == [("IllegalComposite", "comp(le1_2, le0_1) mistyped")]
    assert _validator_outcome(objs, mors, identity, mutant) == want
    # Z/3 with r1 . r1 = identity instead of r2: one hom-set of three
    # morphisms, so the associativity pass runs and reports the triples
    # the reference finds.
    objs, mors, identity, comp = _raw(cyclic(3))
    r1 = mors.index(("r1", 0, 0))
    comp[(r1, r1)] = identity[0]
    want = naive_category_violations(objs, mors, identity, comp)
    assert want and {code for code, _ in want} == {"AssocBroken"}
    assert _validator_outcome(objs, mors, identity, comp) == want
