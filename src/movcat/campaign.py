"""Randomized law campaigns: generate instances, evaluate a named law on
each, and report failures with replayable serialized documents.

Each law is evaluated from the document alone, so any failure's serialized
counterexample re-triggers the failure when fed back in.  Reports are
deterministic in (theorem, seed range, params): instances are generated
from per-seed random streams, aggregation is sorted by seed, and the JSON
form contains no timing data.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from .builders import (
    add_initial_object,
    coslice_category,
    elements_category,
    product_category,
)
from .core import FiniteCategory
from .errors import MovcatError, UnknownTheorem
from .dsl import (
    CoproductsEntity,
    Document,
    PosetEntity,
    make_category_entity,
    serialize_document,
)
from .generators import (
    GenParams,
    poset_has_downset_minima,
    random_category,
    random_domination_doc,
    random_join_semilattice,
    random_poset,
    random_system_doc,
    semilattice_designation,
    _rng,
)
from .movability import (
    MovabilityWitness,
    check_strongly_movable,
    factor_transport,
    product_transport,
    weak_domination_transfer,
    witness_valid,
)
from .search import coproduct_coslice_domination, find_weak_domination
from .systems import (
    SM1Witness,
    SM2Witness,
    check_associated,
    check_sm1,
    check_sm2,
    check_star,
    cone_compatible,
)
from .systems import StarWitness

THEOREMS = (
    "product",
    "transfer",
    "coslice",
    "initial",
    "poset-oracle",
    "sm-bridge",
    "star-bridge",
    "coproduct-coslice",
)


# ---------------------------------------------------------------------------
# Instance generation per law


def generate_campaign_instance(
    theorem: str, seed: int, params: Optional[GenParams] = None
) -> Document:
    """Deterministic instance document for one law evaluation."""
    if theorem not in THEOREMS:
        raise UnknownTheorem(theorem)
    params = params or GenParams()
    rng = _rng(f"campaign:{theorem}", seed, params)
    doc = Document()
    if theorem == "product":
        small = GenParams(4, 16, params.max_fiber)
        doc.add(make_category_entity("K1", random_category(rng, small)))
        doc.add(make_category_entity("K2", random_category(rng, small)))
        return doc
    if theorem == "transfer":
        return random_domination_doc(rng, params)
    if theorem in ("coslice", "initial"):
        doc.add(make_category_entity("K", random_category(rng, params)))
        return doc
    if theorem == "poset-oracle":
        doc.add(PosetEntity("P", random_poset(rng, params.max_objects)))
        return doc
    if theorem == "sm-bridge":
        roll = rng.random()
        directed = False if roll < 0.45 else (None if roll < 0.75 else True)
        return random_system_doc(rng, params, directed=directed)
    if theorem == "star-bridge":
        roll = rng.random()
        directed = True if roll < 0.5 else None
        return random_system_doc(rng, params, directed=directed)
    # coproduct-coslice
    sl = random_join_semilattice(rng)
    doc.add(PosetEntity("P", sl))
    cat = doc.category_of("P")
    doc.add(
        CoproductsEntity("coproducts_P", "P", semilattice_designation(cat, sl))
    )
    return doc


# ---------------------------------------------------------------------------
# Law evaluators (document in, verdict out)


def _movable(cat: FiniteCategory):
    res = check_strongly_movable(cat)
    return (res if isinstance(res, MovabilityWitness) else None), res


def _law_product(doc: Document) -> tuple[bool, str]:
    k1 = doc.category_of("K1")
    k2 = doc.category_of("K2")
    w1, _ = _movable(k1)
    w2, _ = _movable(k2)
    prod = product_category([k1, k2])
    wp, _ = _movable(prod.category)
    if (wp is not None) != (w1 is not None and w2 is not None):
        return False, "product verdict differs from conjunction of factors"
    if w1 is not None and w2 is not None:
        combined = product_transport(prod, [w1, w2])
        if not witness_valid(prod.category, combined):
            return False, "combined product witness does not verify"
    if wp is not None:
        for i in (0, 1):
            back = factor_transport(prod, wp, i)
            if not witness_valid((k1, k2)[i], back):
                return False, f"projected witness for factor {i} fails"
    return True, "verdicts agree; transports verify"


def _law_transfer(doc: Document) -> tuple[bool, str]:
    k = doc.category_of("K")
    l = doc.category_of("L")
    res = find_weak_domination(k, l)
    if res.found is None:
        return True, "vacuous: no domination found"
    f, g, phi = res.found
    wl, _ = _movable(l)
    if wl is None:
        return True, "vacuous: L not strongly movable"
    wk = weak_domination_transfer(f, g, phi, wl)
    if not witness_valid(k, wk):
        return False, "transferred witness does not verify"
    return True, "exercised: domination found and witness transferred"


def _law_coslice(doc: Document) -> tuple[bool, str]:
    k = doc.category_of("K")
    for x in range(k.n_objects):
        w, _ = _movable(coslice_category(k, x).category)
        if w is None:
            return False, f"coslice under object {k.object_names[x]} not movable"
    return True, "all coslices strongly movable"


def _law_initial(doc: Document) -> tuple[bool, str]:
    k = doc.category_of("K")
    w, _ = _movable(add_initial_object(k))
    if w is None:
        return False, "category with fresh initial object not movable"
    return True, "movable after adjoining an initial object"


def _law_poset_oracle(doc: Document) -> tuple[bool, str]:
    poset = doc["P"].poset
    cat = doc.category_of("P")
    w, _ = _movable(cat)
    expected = poset_has_downset_minima(poset)
    if (w is not None) != expected:
        return False, (
            f"thin-category verdict {w is not None} vs order oracle {expected}"
        )
    return True, "verdict matches down-set-minimum oracle"


def _law_sm_bridge(doc: Document) -> tuple[bool, str]:
    ent = doc["S"]
    system, cone = ent.system, ent.cone
    compatible = not cone_compatible(system, cone)
    sm1 = check_sm1(system)
    if isinstance(sm1, SM1Witness) and compatible:
        if not isinstance(check_sm2(system, cone), SM2Witness):
            return False, "SM1 with a compatible cone but SM2 fails"
    if compatible and system.directed:
        rep = check_associated(system, cone)
        if rep.cond3 and isinstance(check_sm2(system, cone), SM2Witness):
            if not isinstance(check_sm1(system), SM1Witness):
                return False, "directed SM2 with conditions 1+3 but SM1 fails"
    detail = "sm1=" + ("pass" if isinstance(sm1, SM1Witness) else "fail")
    return True, detail


def _law_star_bridge(doc: Document) -> tuple[bool, str]:
    ent = doc["S"]
    system, cone = ent.system, ent.cone
    h = cone.copresheaf
    star = check_star(h)
    star_ok = isinstance(star, StarWitness)
    w, _ = _movable(elements_category(h).category)
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
    designation = doc["coproducts_P"].designation
    for x1 in range(cat.n_objects):
        for x2 in range(cat.n_objects):
            res = coproduct_coslice_domination(cat, designation, x1, x2)
            k = res.coslice_sum.category
            ws = []
            for part in res.coslice_factors:
                w, _ = _movable(part.category)
                if w is None:
                    return False, "coslice factor unexpectedly not movable"
                ws.append(w)
            wl = product_transport(res.product, ws)
            wk = weak_domination_transfer(res.f, res.g, res.phi, wl)
            if not witness_valid(k, wk):
                return False, (
                    f"composed witness fails for pair "
                    f"({cat.object_names[x1]}, {cat.object_names[x2]})"
                )
    return True, "all pairs compose to verified witnesses"


_LAWS = {
    "product": _law_product,
    "transfer": _law_transfer,
    "coslice": _law_coslice,
    "initial": _law_initial,
    "poset-oracle": _law_poset_oracle,
    "sm-bridge": _law_sm_bridge,
    "star-bridge": _law_star_bridge,
    "coproduct-coslice": _law_coproduct_coslice,
}


def evaluate_instance(theorem: str, doc: Document) -> tuple[bool, str]:
    """Evaluate one law on a self-contained document."""
    if theorem not in _LAWS:
        raise UnknownTheorem(theorem)
    try:
        return _LAWS[theorem](doc)
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
    theorem: str,
    seeds: range,
    params: Optional[GenParams] = None,
    *,
    negate: bool = False,
) -> CampaignReport:
    """Run one law over a seed range.

    ``negate`` inverts every verdict (harness self-test hook).
    """
    if theorem not in THEOREMS:
        raise UnknownTheorem(theorem)
    params = params or GenParams()
    start = time.monotonic()
    report = CampaignReport(
        theorem, seeds.start, seeds.stop, params, instances=len(seeds)
    )
    for seed in sorted(seeds):
        doc = generate_campaign_instance(theorem, seed, params)
        ok, detail = evaluate_instance(theorem, doc)
        if negate:
            ok = not ok
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
