"""Randomized law campaigns: generate instances, evaluate a named law on
each, and report failures with replayable serialized documents.

Each law is one record in ``_LAWS``: the document family that generates
its instances and the evaluator that decides it.  Each law is evaluated
from the document alone, so any failure's serialized
counterexample re-triggers the failure when fed back in.  Reports are
deterministic in (theorem, seed range, params): instances are generated
from per-seed random streams, aggregation is sorted by seed, and the JSON
form contains no timing data.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .builders import (
    add_initial_object,
    coslice_category,
    elements_category,
    product_category,
)
from .core import FiniteCategory
from .errors import (
    MovcatError,
    UnknownTheorem,
    UnresolvedReference,
    VerificationFailed,
)
from .dsl import (
    CoproductsEntity,
    Document,
    PosetEntity,
    SystemEntity,
    make_category_entity,
    serialize_document,
)
from .generators import (
    GenParams,
    poset_has_downset_minima,
    random_category,
    random_domination_doc,
    random_join_semilattice,
    random_system_doc,
    semilattice_designation,
    _FAMILIES,
    _Family,
    _check_params,
    _generate,
)
from .movability import (
    MovabilityWitness,
    check_strongly_movable,
    factor_transport,
    product_transport,
    weak_domination_transfer,
    witness_valid,
    _product_transport,
    _weak_domination_transfer,
)
from .search import coproduct_coslice_domination, find_weak_domination
from .systems import (
    InverseSystem,
    SM1Witness,
    SM2Witness,
    StarWitness,
    SystemCone,
    check_associated,
    check_sm1,
    check_sm2,
    check_star,
    cone_compatible,
)

# ---------------------------------------------------------------------------
# Instance generators of their own (the other laws share a generators family)


def _product_doc(rng: random.Random, params: GenParams) -> Document:
    small = GenParams(4, 16, params.max_fiber)
    return Document(
        [
            make_category_entity(name, random_category(rng, small))
            for name in ("K1", "K2")
        ]
    )


def _sm_bridge_doc(rng: random.Random, params: GenParams) -> Document:
    roll = rng.random()
    directed = False if roll < 0.45 else (None if roll < 0.75 else True)
    return random_system_doc(rng, params, directed=directed)


def _star_bridge_doc(rng: random.Random, params: GenParams) -> Document:
    directed = True if rng.random() < 0.5 else None
    return random_system_doc(rng, params, directed=directed)


def _semilattice_doc(rng: random.Random, params: GenParams) -> Document:
    sl = PosetEntity("P", random_join_semilattice(rng))
    designation = semilattice_designation(sl.category, sl.poset)
    return Document([sl, CoproductsEntity("coproducts_P", "P", designation)])


# ---------------------------------------------------------------------------
# Law evaluators (document in, verdict out).  The transports re-verify their
# output and raise VerificationFailed when it does not verify, which
# evaluate_instance records as a failure; so the laws call them for that
# check alone and do not re-check the witnesses they return.
# coproduct-coslice builds each object's coslice and witness once per
# document and verifies each witness once, when it is built.  It runs the
# public coproduct_coslice_domination on those shared coslices, then calls
# the transports' private bodies, which trust their inputs and verify only
# their output.


def _movable(cat: FiniteCategory) -> Optional[MovabilityWitness]:
    res = check_strongly_movable(cat)
    return res if isinstance(res, MovabilityWitness) else None


def _law_product(doc: Document) -> tuple[bool, str]:
    k1 = doc.category_of("K1")
    k2 = doc.category_of("K2")
    w1 = _movable(k1)
    w2 = _movable(k2)
    prod = product_category([k1, k2])
    wp = _movable(prod.category)
    if (wp is not None) != (w1 is not None and w2 is not None):
        return False, "product verdict differs from conjunction of factors"
    if w1 is not None and w2 is not None:
        product_transport(prod, [w1, w2])
    if wp is not None:
        for i in (0, 1):
            factor_transport(prod, wp, i)
    return True, "verdicts agree; transports verify"


def _law_transfer(doc: Document) -> tuple[bool, str]:
    k = doc.category_of("K")
    l = doc.category_of("L")
    res = find_weak_domination(k, l)
    if res.found is None:
        return True, "vacuous: no domination found"
    f, g, phi = res.found
    wl = _movable(l)
    if wl is None:
        return True, "vacuous: L not strongly movable"
    weak_domination_transfer(f, g, phi, wl)
    return True, "exercised: domination found and witness transferred"


def _law_coslice(doc: Document) -> tuple[bool, str]:
    k = doc.category_of("K")
    for x in range(k.n_objects):
        w = _movable(coslice_category(k, x).category)
        if w is None:
            return False, f"coslice under object {k.object_names[x]} not movable"
    return True, "all coslices strongly movable"


def _law_initial(doc: Document) -> tuple[bool, str]:
    k = doc.category_of("K")
    w = _movable(add_initial_object(k))
    if w is None:
        return False, "category with fresh initial object not movable"
    return True, "movable after adjoining an initial object"


def _law_poset_oracle(doc: Document) -> tuple[bool, str]:
    poset = doc.get("P", PosetEntity).poset
    cat = doc.category_of("P")
    w = _movable(cat)
    expected = poset_has_downset_minima(poset)
    if (w is not None) != expected:
        return False, (
            f"thin-category verdict {w is not None} vs order oracle {expected}"
        )
    return True, "verdict matches down-set-minimum oracle"


def _system_with_cone(doc: Document) -> tuple[InverseSystem, SystemCone]:
    ent = doc.get("S", SystemEntity)
    if ent.cone is None:
        raise UnresolvedReference("S carries no cone")
    return ent.system, ent.cone


def _law_sm_bridge(doc: Document) -> tuple[bool, str]:
    system, cone = _system_with_cone(doc)
    compatible = not cone_compatible(system, cone)
    sm1_ok = isinstance(check_sm1(system), SM1Witness)
    # SM2 is decided at most once: when SM1 holds it is asked only by the
    # first branch, and when SM1 fails only by the second.
    if sm1_ok and compatible:
        if not isinstance(check_sm2(system, cone), SM2Witness):
            return False, "SM1 with a compatible cone but SM2 fails"
    if compatible and system.directed:
        rep = check_associated(system, cone)
        if rep.cond3 and not sm1_ok and isinstance(check_sm2(system, cone), SM2Witness):
            return False, "directed SM2 with conditions 1+3 but SM1 fails"
    return True, "sm1=" + ("pass" if sm1_ok else "fail")


def _law_star_bridge(doc: Document) -> tuple[bool, str]:
    system, cone = _system_with_cone(doc)
    h = cone.copresheaf
    star = check_star(h)
    star_ok = isinstance(star, StarWitness)
    w = _movable(elements_category(h).category)
    if star_ok != (w is not None):
        return False, "direct condition disagrees with elements-category verdict"
    if system.directed and not cone_compatible(system, cone):
        rep = check_associated(system, cone)
        if rep.associated:
            sm2_ok = isinstance(check_sm2(system, cone), SM2Witness)
            if sm2_ok != star_ok:
                return False, "associated system: SM2 disagrees with condition"
            return True, "exercised: associated triple agrees"
    return True, "condition matches elements-category verdict"


def _law_coproduct_coslice(doc: Document) -> tuple[bool, str]:
    cat = doc.category_of("P")
    designation = doc.get("coproducts_P", CoproductsEntity).designation
    # One coslice and one verified witness per object, built up front: every
    # coslice of a poset has an initial object, so no witness is None and no
    # detail string depends on the order they are built in.
    coslices = [coslice_category(cat, x) for x in range(cat.n_objects)]
    witnesses = []
    for part in coslices:
        w = _movable(part.category)
        if w is not None and not witness_valid(part.category, w):
            raise VerificationFailed("factor witness does not verify")
        witnesses.append(w)

    def shared_coslice(_, x):
        return coslices[x]

    for x1 in range(cat.n_objects):
        for x2 in range(cat.n_objects):
            res = coproduct_coslice_domination(
                cat, designation, x1, x2, shared_coslice
            )
            ws = [witnesses[x1], witnesses[x2]]
            if ws[0] is None or ws[1] is None:
                return False, "coslice factor unexpectedly not movable"
            wl = _product_transport(res.product, ws)
            _weak_domination_transfer(res.f, res.g, res.phi, wl)
    return True, "all pairs compose to verified witnesses"


class _Law(NamedTuple):
    generate: _Family
    evaluate: Callable[[Document], tuple[bool, str]]


_LAWS = {
    "product": _Law(_product_doc, _law_product),
    "transfer": _Law(random_domination_doc, _law_transfer),
    "coslice": _Law(_FAMILIES["category"], _law_coslice),
    "initial": _Law(_FAMILIES["category"], _law_initial),
    "poset-oracle": _Law(_FAMILIES["poset"], _law_poset_oracle),
    "sm-bridge": _Law(_sm_bridge_doc, _law_sm_bridge),
    "star-bridge": _Law(_star_bridge_doc, _law_star_bridge),
    "coproduct-coslice": _Law(_semilattice_doc, _law_coproduct_coslice),
}
THEOREMS = tuple(_LAWS)


def generate_campaign_instance(
    theorem: str, seed: int, params: Optional[GenParams] = None
) -> Document:
    """Deterministic instance document for one law evaluation."""
    if theorem not in _LAWS:
        raise UnknownTheorem(theorem)
    return _generate(_LAWS[theorem].generate, f"campaign:{theorem}", seed, params)


def evaluate_instance(theorem: str, doc: Document) -> tuple[bool, str]:
    """Evaluate one law on a self-contained document."""
    if theorem not in _LAWS:
        raise UnknownTheorem(theorem)
    try:
        return _LAWS[theorem].evaluate(doc)
    except MovcatError as exc:
        return False, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Campaign runner


@dataclass
class CampaignReport:
    """Outcome of one campaign.  ``failures`` holds replayable documents;
    ``wall_time`` is informational and excluded from the JSON form so that
    reports are byte-identical across re-runs."""

    theorem: str
    seed_start: int
    seed_stop: int
    params: GenParams
    instances: int = 0
    passes: int = 0
    failures: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        payload = {
            "theorem": self.theorem,
            "seeds": [self.seed_start, self.seed_stop],
            "params": {
                "max_objects": self.params.max_objects,
                "max_morphisms": self.params.max_morphisms,
                "max_fiber": self.params.max_fiber,
            },
            "instances": self.instances,
            "passes": self.passes,
            "failures": self.failures,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def run_campaign(
    theorem: str, seeds: range, params: Optional[GenParams] = None
) -> CampaignReport:
    """Run one law over a seed range."""
    if theorem not in THEOREMS:
        raise UnknownTheorem(theorem)
    params = params or GenParams()
    _check_params(params)
    start = time.monotonic()
    report = CampaignReport(
        theorem, seeds.start, seeds.stop, params, instances=len(seeds)
    )
    for seed in sorted(seeds):
        doc = generate_campaign_instance(theorem, seed, params)
        ok, detail = evaluate_instance(theorem, doc)
        if ok:
            report.passes += 1
        else:
            report.failures.append(
                {
                    "seed": seed,
                    "detail": detail,
                    "document": serialize_document(doc),
                }
            )
    report.wall_time = time.monotonic() - start
    return report
