"""Every decider against its quantifier transcription in ``util``.

Results are compared field by field with each dict as its item list, so a
decider that picks a different (still valid) witness, reports a different
defeating challenge, or fills a dict in another order fails here even when
the campaign verdicts stay the same.
"""

import dataclasses

from movcat.builders import elements_category
from movcat.campaign import generate_campaign_instance
from movcat.core import identity_functor, make_poset, validate_category
from movcat.generators import generate_instance, terminal_copresheaf
from movcat.movability import check_strongly_movable, space_movability
from movcat.systems import (
    check_sm1,
    check_sm2,
    check_star,
    cone_compatible,
    make_cone,
    validate_system,
)
from util import naive_movable_wrt, naive_sm1, naive_sm2, naive_star


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
