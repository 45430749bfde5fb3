import pytest

from movcat.builders import (
    build_poset_category,
    elements_category,
    representable_copresheaf,
)
from movcat.core import Copresheaf, make_poset
from movcat.errors import ConeIncompatible, ValidationFailed, Violation
from movcat.generators import terminal_copresheaf
from movcat.movability import MovabilityWitness, check_movable_wrt
from movcat.systems import (
    SM1Witness,
    SM2Witness,
    SMCounterexample,
    StarCounterexample,
    StarWitness,
    check_associated,
    check_sm1,
    check_sm2,
    check_star,
    cone_compatible,
    make_cone,
    validate_system,
)
from util import chain, v_poset_category


def _thin_bonds(ambient, index, at):
    """For a thin ambient: the unique bond over every strict pair."""
    return {
        (a, a2): ambient.hom(at[a2], at[a])[0]
        for a, a2 in index.strict_pairs()
    }


def chain_system(n):
    """Constant-ish system: chain ambient indexed by the same chain,
    at[a] = n-1-a so bonds point down the chain."""
    amb = chain(n)
    idx = make_poset([f"i{k}" for k in range(n)], [(k, k + 1) for k in range(n - 1)])
    at = [n - 1 - k for k in range(n)]
    return validate_system(amb, idx, at, _thin_bonds(amb, idx, at))


def test_validate_system_fills_reflexive_bonds():
    sys = chain_system(3)
    for a in range(3):
        assert sys.bond[(a, a)] == sys.ambient.identity[sys.at[a]]
    assert sys.directed


def test_validate_system_rejects_mistyped_bond():
    amb = chain(2)
    idx = make_poset(["i0", "i1"], [(0, 1)])
    with pytest.raises(ValidationFailed) as e:
        validate_system(amb, idx, [0, 1], {(0, 1): amb.identity[0]})
    assert "BondTypeError" in e.value.codes


def test_validate_system_rejects_missing_bond():
    amb = chain(2)
    idx = make_poset(["i0", "i1"], [(0, 1)])
    with pytest.raises(ValidationFailed) as e:
        validate_system(amb, idx, [1, 0], {})
    assert "BondMissing" in e.value.codes


def test_validate_system_rejects_out_of_range_bond_key():
    amb = chain(2)
    idx = make_poset(["i0", "i1"], [(0, 1)])
    for key in ((0, 5), (-1, 0), (0,), 5, (0, "a"), "ab", (0, 1, 1)):
        with pytest.raises(ValidationFailed) as e:
            validate_system(amb, idx, [1, 0], {(0, 1): 2, key: 2})
        assert e.value.codes == {"BadRef"}


def test_validate_system_rejects_bad_object_map():
    amb = chain(2)
    idx = make_poset(["i0", "i1"], [(0, 1)])
    with pytest.raises(ValidationFailed) as e:
        validate_system(amb, idx, [1], {})
    assert e.value.violations == [Violation("BadRef", "object map size")]
    assert str(e.value) == "system: BadRef: object map size"
    with pytest.raises(ValidationFailed) as e:
        validate_system(amb, idx, [2, -1], {})
    assert e.value.violations == [
        Violation("BadRef", "object at index i0"),
        Violation("BadRef", "object at index i1"),
    ]
    assert str(e.value) == (
        "system: BadRef: object at index i0; BadRef: object at index i1"
    )


def test_validate_system_rejects_mistyped_reflexive_bond():
    amb = chain(2)
    idx = make_poset(["i0", "i1"], [(0, 1)])
    with pytest.raises(ValidationFailed) as e:
        validate_system(amb, idx, [1, 0], {(0, 1): 2, (1, 1): 1})
    # id_1 at i1, over object 0, is not its identity, nor in hom(0, 0).
    assert e.value.violations == [
        Violation("BondTypeError", "reflexive bond at i1"),
        Violation("BondTypeError", "bond (i1, i1) mistyped"),
    ]
    assert str(e.value) == (
        "system: BondTypeError: reflexive bond at i1; "
        "BondTypeError: bond (i1, i1) mistyped"
    )


def test_validate_system_bond_functoriality():
    # Ambient with two distinct parallel composites: pointed sets.
    from util import pointed_sets_2

    ps = pointed_sets_2()
    idx = make_poset(["i0", "i1", "i2"], [(0, 1), (1, 2)])
    # bonds: P2 <- P2 <- P2 with (0,1) = coll, (1,2) = id, but (0,2) = id:
    # coll . id = coll != id breaks functoriality.
    with pytest.raises(ValidationFailed) as e:
        validate_system(
            ps, idx, [1, 1, 1], {(0, 1): 4, (1, 2): 1, (0, 2): 1}
        )
    assert "BondFunctorialityBroken" in e.value.codes


def test_sm1_trivial_on_directed_maximum():
    # With a maximum index, a' = max works with r = bonds themselves.
    sys = chain_system(3)
    res = check_sm1(sys)
    assert isinstance(res, SM1Witness)
    assert res.alpha_prime == (2, 2, 2)


def test_sm1_counterexample_on_fork_with_noninvertible_bonds():
    # Index fork o <= a, o <= b; ambient V poset with X_o the top and the
    # legs landing on the two incomparable bottoms: no r connects the legs.
    amb = v_poset_category()
    idx = make_poset(["o", "a", "b"], [(0, 1), (0, 2)])
    at = [2, 0, 1]
    sys = validate_system(amb, idx, at, _thin_bonds(amb, idx, at))
    assert not sys.directed
    res = check_sm1(sys)
    assert isinstance(res, SMCounterexample)
    assert res.alpha == 0


def test_sm1_constant_system_on_fork():
    # The constant system is SM1 even over a non-directed index: r = id.
    amb = chain(1)
    idx = make_poset(["o", "a", "b"], [(0, 1), (0, 2)])
    sys = validate_system(amb, idx, [0, 0, 0], _thin_bonds(amb, idx, [0, 0, 0]))
    res = check_sm1(sys)
    assert isinstance(res, SM1Witness)
    for (_, _), (_, r) in res.choices.items():
        assert r == amb.identity[0]


def test_sm2_trivial_on_directed_with_compatible_cone():
    sys = chain_system(3)
    h = terminal_copresheaf(sys.ambient)
    cone = make_cone(sys, h, [0, 0, 0])
    assert cone_compatible(sys, cone) == []
    res = check_sm2(sys, cone)
    assert isinstance(res, SM2Witness)


def test_sm2_rejects_incompatible_cone():
    amb = chain(2)
    idx = make_poset(["i0", "i1"], [(0, 1)])
    at = [1, 0]
    sys = validate_system(amb, idx, at, _thin_bonds(amb, idx, at))
    # the comparison sends u to z, never to w
    h = Copresheaf(amb, [["u"], ["z", "w"]], [[0], [0, 1], [0]])
    cone = make_cone(sys, h, [1, 0])  # claims w over i0, but bond gives z
    assert cone_compatible(sys, cone) == [(0, 1)]
    with pytest.raises(ConeIncompatible):
        check_sm2(sys, cone)


def test_make_cone_typechecks():
    sys = chain_system(2)
    h = terminal_copresheaf(sys.ambient)
    with pytest.raises(ValidationFailed):
        make_cone(sys, h, [0])
    with pytest.raises(ValidationFailed):
        make_cone(sys, h, [0, 5])
    with pytest.raises(ValidationFailed):
        make_cone(sys, terminal_copresheaf(chain(3)), [0, 0])


def test_associated_representable_single_index():
    # One-point index at p, H = representable at p, cone = id_p: the
    # classical associated situation; all three conditions hold.
    amb = chain(3)
    idx = make_poset(["i0"], [])
    for p in range(3):
        sys = validate_system(amb, idx, [p], {})
        h = representable_copresheaf(amb, p)
        elt = h.fibers[p].index(amb.mor_names[amb.identity[p]]) if isinstance(
            h.fibers[p][0], str
        ) else 0
        cone = make_cone(sys, h, [elt])
        rep = check_associated(sys, cone)
        assert rep.associated, rep


def test_associated_cond1_violation_reported():
    amb = chain(2)
    idx = make_poset(["i0", "i1"], [(0, 1)])
    at = [1, 0]
    sys = validate_system(amb, idx, at, _thin_bonds(amb, idx, at))
    h = Copresheaf(amb, [["u"], ["z", "w"]], [[0], [0, 1], [0]])
    cone = make_cone(sys, h, [1, 0])
    rep = check_associated(sys, cone)
    assert not rep.cond1 and rep.cond1_failures == ((0, 1),)
    assert not rep.associated


def test_associated_cond2_unreachable_element():
    # Fiber element not in the image of any map from the system objects.
    amb = chain(2)
    idx = make_poset(["i0"], [])
    sys = validate_system(amb, idx, [1], {})
    h = Copresheaf(amb, [["u"], ["z", "w"]], [[0], [0, 1], [0]])
    cone = make_cone(sys, h, [0])  # picks z in the top fiber
    rep = check_associated(sys, cone)
    assert not rep.cond2
    assert (1, 1) in rep.cond2_failures  # w is never hit
    assert rep.cond1 and rep.cond3


def test_star_representable_witness():
    for base in (chain(3), v_poset_category()):
        for p in range(base.n_objects):
            res = check_star(representable_copresheaf(base, p))
            assert isinstance(res, StarWitness)


def test_star_lambda_counterexample():
    v = v_poset_category()
    h = Copresheaf(v, [["x"], ["y"], ["z"]], [[0], [0], [0], [0], [0]])
    res = check_star(h)
    assert isinstance(res, StarCounterexample)
    assert res.at == (2, 0)  # the top element is hit from both legs


def test_star_singleton_base():
    res = check_star(terminal_copresheaf(chain(1)))
    assert isinstance(res, StarWitness)


def test_star_agrees_with_elements_category_movability():
    cases = [
        representable_copresheaf(v_poset_category(), 0),
        terminal_copresheaf(v_poset_category()),
        terminal_copresheaf(chain(3)),
        Copresheaf(
            v_poset_category(), [["x"], ["y"], ["z"]], [[0], [0], [0], [0], [0]]
        ),
    ]
    for h in cases:
        el = elements_category(h)
        mov = check_movable_wrt(el.forgetful)
        assert isinstance(check_star(h), StarWitness) == isinstance(
            mov, MovabilityWitness
        )


# ---------------------------------------------------------------------------
# Frozen counterexamples showing why the bridging laws between the two
# system conditions require a directed index poset.  Over non-directed
# indices SM2 can hold while SM1 fails (even for a fully associated cone),
# and the object-by-object condition can hold while SM2 fails.


def test_nondirected_index_sm2_without_sm1():
    # Ambient D -> C; index fork o <= a, o <= b; X_o = C, X_a = X_b = D;
    # H = representable at D; cone picks id_D over a, b and the unique
    # D -> C over o.  The cone is fully associated and SM2 holds, yet SM1
    # fails at o: no single a* sits above both legs.
    amb = build_poset_category(make_poset(["D", "C"], [(0, 1)]))
    idx = make_poset(["o", "a", "b"], [(0, 1), (0, 2)])
    at = [1, 0, 0]
    sys = validate_system(amb, idx, at, _thin_bonds(amb, idx, at))
    assert not sys.directed
    h = representable_copresheaf(amb, 0)
    cone = make_cone(sys, h, [0, 0, 0])
    rep = check_associated(sys, cone)
    assert rep.associated
    assert isinstance(check_sm1(sys), SMCounterexample)
    assert isinstance(check_sm2(sys, cone), SM2Witness)


def test_nondirected_index_star_without_sm2():
    # Diamond ambient bot < D1, D2 < C; index fork o <= a, o <= b plus an
    # isolated element z; X_z = bot, X_o = C, X_a = D1, X_b = D2;
    # H = representable at bot.  The copresheaf satisfies the
    # object-by-object condition (bot is an initial object of the ambient)
    # and the cone is associated (z reaches every fiber), but SM2 fails at
    # o because no r connects the two incomparable legs.
    amb = build_poset_category(
        make_poset(["bot", "D1", "D2", "C"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    )
    idx = make_poset(["z", "o", "a", "b"], [(1, 2), (1, 3)])
    at = [0, 3, 1, 2]
    sys = validate_system(amb, idx, at, _thin_bonds(amb, idx, at))
    assert not sys.directed
    h = representable_copresheaf(amb, 0)
    cone = make_cone(sys, h, [0, 0, 0, 0])
    rep = check_associated(sys, cone)
    assert rep.associated
    assert isinstance(check_star(h), StarWitness)
    assert isinstance(check_sm2(sys, cone), SMCounterexample)
