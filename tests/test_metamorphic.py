"""Metamorphic tests: an isomorphic copy of a category, with its object and
morphism refs permuted, gets the same answers, and a certificate carried
over by the permutation checks on the copy.

Every search walks ref order, so the least witness or the first triple
found may differ on the copy; only verdicts, budget stops and the
carried-over certificates are compared."""

from hypothesis import given, settings
from hypothesis import strategies as st

from movcat.core import (
    Functor,
    compose_functors,
    identity_functor,
    validate_functor,
    validate_nat_trans,
)
from movcat.movability import (
    MovabilityWitness,
    check_strongly_movable,
    witness_valid,
)
from movcat.search import find_functorial_domination, find_weak_domination
from util import (
    antichain,
    chain,
    cyclic,
    diamond,
    iso_pair,
    permuted,
    pointed_sets_2,
    v_poset_category,
)

CATEGORIES = {
    "chain2": chain(2),
    "chain3": chain(3),
    "V": v_poset_category(),
    "antichain2": antichain(2),
    "diamond": diamond()[0],
    "pointed_sets_2": pointed_sets_2(),
    "Z/2": cyclic(2),
    "Z/3": cyclic(3),
    "iso_pair": iso_pair(),
}


@st.composite
def copies(draw):
    """A category of ``CATEGORIES``, a permutation of its object refs and
    one of its morphism refs, and the permuted copy."""
    cat = CATEGORIES[draw(st.sampled_from(sorted(CATEGORIES)))]
    obj_perm = draw(st.permutations(range(cat.n_objects)))
    mor_perm = draw(st.permutations(range(cat.n_mors)))
    return cat, obj_perm, mor_perm, permuted(cat, obj_perm, mor_perm)


def carried(f: Functor, src, tgt) -> tuple[list[int], list[int]]:
    """The maps of ``f`` between the copies ``src`` and ``tgt``, each a
    (category, obj_perm, mor_perm, copy) tuple of ``copies``."""
    _, s_obj, s_mor, _ = src
    _, t_obj, t_mor, _ = tgt
    obj, mor = [0] * len(s_obj), [0] * len(s_mor)
    for x, y in enumerate(f.obj_map):
        obj[s_obj[x]] = t_obj[y]
    for m, t in enumerate(f.mor_map):
        mor[s_mor[m]] = t_mor[t]
    return obj, mor


def check_copies(k_copy, l_copy) -> set:
    """Assert the relations on one pair of copies; return what was seen:
    each search's name with its hit or miss, and each decider verdict."""
    seen = set()
    k, k_obj, k_mor, k2 = k_copy
    l, _, _, l2 = l_copy
    for find in (find_functorial_domination, find_weak_domination):
        res, res2 = find(k, l), find(k2, l2)
        assert (res.found is None, res.truncated) == (
            res2.found is None, res2.truncated
        )
        seen.add((find.__name__, res.found is not None))
        if res.found is None:
            continue
        f, g = res.found[:2]
        f2 = validate_functor(k2, l2, *carried(f, k_copy, l_copy))
        g2 = validate_functor(l2, k2, *carried(g, l_copy, k_copy))
        gf2, one_k2 = compose_functors(g2, f2), identity_functor(k2)
        if find is find_functorial_domination:
            assert gf2 == one_k2
        else:
            comps = [0] * k.n_objects
            for x, c in enumerate(res.found[2].components):
                comps[k_obj[x]] = k_mor[c]
            validate_nat_trans(comps, gf2, one_k2)

    for cat, obj_perm, mor_perm, copy in (k_copy, l_copy):
        w, w2 = check_strongly_movable(cat), check_strongly_movable(copy)
        movable = isinstance(w, MovabilityWitness)
        assert movable == isinstance(w2, MovabilityWitness)
        seen.add(("movable", movable))
        if not movable:
            continue
        movers, mover_mors = [0] * cat.n_objects, [0] * cat.n_objects
        for x in range(cat.n_objects):
            movers[obj_perm[x]] = obj_perm[w.movers[x]]
            mover_mors[obj_perm[x]] = mor_perm[w.mover_mors[x]]
        lifts = [0] * cat.n_mors
        for p, u in enumerate(w.lifts):
            lifts[mor_perm[p]] = mor_perm[u]
        assert witness_valid(
            copy, MovabilityWitness(tuple(movers), tuple(mover_mors), tuple(lifts))
        )
    return seen


def test_searches_and_decider_commute_with_permutation():
    seen = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(copies(), copies())
    def drawn(k_copy, l_copy):
        seen.update(check_copies(k_copy, l_copy))

    drawn()
    # Both searches hit and miss, and the decider says both verdicts.
    assert seen == {
        (name, hit)
        for name in ("find_functorial_domination", "find_weak_domination",
                     "movable")
        for hit in (False, True)
    }
