import dataclasses
import hashlib

import pytest
from click.testing import CliRunner

from movcat import campaign, movability, search
from movcat.builders import add_initial_object, coslice_category, product_category
from movcat.campaign import (
    THEOREMS,
    evaluate_instance,
    generate_campaign_instance,
    run_campaign,
)
from movcat.cli import main
from movcat.core import MAX_MORPHISMS, MAX_OBJECTS, make_poset
from movcat.dsl import (
    CoproductsEntity,
    Document,
    PosetEntity,
    parse_document,
    serialize_document,
)
from movcat.errors import NoDesignatedCoproducts, ParamsOutOfRange, UnknownTheorem
from movcat.generators import (
    KINDS,
    GenParams,
    generate_instance,
    poset_has_downset_minima,
    semilattice_designation,
)
from movcat.movability import (
    Counterexample,
    MovabilityWitness,
    _product_transport,
    _weak_domination_transfer,
    check_strongly_movable,
    factor_transport,
    product_transport,
    weak_domination_transfer,
)
from movcat.search import coproduct_coslice_domination
from movcat.systems import (
    SM1Witness,
    SM2Witness,
    SMCounterexample,
    StarCounterexample,
    StarWitness,
    check_sm1,
    cone_compatible,
)
from util import fail_every_verdict, posets_up_to_iso

PARAMS = GenParams(max_objects=4, max_morphisms=16, max_fiber=3)


def test_all_theorems_clean_on_small_range():
    for theorem in THEOREMS:
        report = run_campaign(theorem, range(0, 10), PARAMS)
        assert report.instances == 10
        assert report.passes + len(report.failures) == report.instances
        assert report.clean, (theorem, report.failures[:1])


def test_failing_law_records_every_verdict_as_failure(monkeypatch):
    fail_every_verdict(monkeypatch, "product")
    report = run_campaign("product", range(0, 10), PARAMS)
    assert report.passes == 0
    assert [f["seed"] for f in report.failures] == list(range(10))
    assert {f["detail"] for f in report.failures} == {"forced failure"}


def test_reports_byte_identical_across_runs():
    for theorem in ("product", "sm-bridge"):
        a = run_campaign(theorem, range(0, 12), PARAMS).to_json()
        b = run_campaign(theorem, range(0, 12), PARAMS).to_json()
        assert a == b


def test_json_has_no_timing():
    report = run_campaign("coslice", range(0, 3), PARAMS)
    assert report.wall_time > 0
    assert "wall_time" not in report.to_json()


def test_forced_failures_replay_to_the_real_verdict(monkeypatch):
    # A failing record marks passing documents as failures; once the real
    # record is back, replaying each stored document must pass.
    fail_every_verdict(monkeypatch, "initial")
    report = run_campaign("initial", range(0, 5), PARAMS)
    monkeypatch.undo()
    assert len(report.failures) == 5
    for failure in report.failures:
        ok, _ = evaluate_instance("initial", parse_document(failure["document"]))
        assert ok


def test_campaign_instance_determinism():
    for theorem in THEOREMS:
        a = serialize_document(generate_campaign_instance(theorem, 3, PARAMS))
        b = serialize_document(generate_campaign_instance(theorem, 3, PARAMS))
        assert a == b


@pytest.mark.parametrize(
    "theorem, params",
    [
        ("coslice", GenParams(max_objects=0)),
        ("sm-bridge", GenParams(max_fiber=0)),
        ("coslice", GenParams(max_objects=100)),
        ("initial", GenParams(max_objects=MAX_OBJECTS)),
        ("star-bridge", GenParams(max_fiber=18)),
    ],
)
def test_campaign_params_checked(theorem, params):
    # Checked before the seed loop, so an empty range is no escape.
    for seeds in (range(0, 20), range(0)):
        with pytest.raises(ParamsOutOfRange):
            run_campaign(theorem, seeds, params)


@pytest.mark.parametrize(
    "theorem, params, size, largest",
    [
        (
            "initial",
            GenParams(MAX_OBJECTS - 1, MAX_MORPHISMS, 3),
            lambda doc: doc.category_of("K").n_objects + 1,
            MAX_OBJECTS,
        ),
        (
            "star-bridge",
            GenParams(max_fiber=17),
            lambda doc: sum(map(len, doc["H"].copresheaf.fibers)),
            4 * 17 - 6,
        ),
    ],
    ids=["initial", "star-bridge"],
)
def test_campaign_clean_at_params_bounds(theorem, params, size, largest):
    # At the largest accepted params, the category each law builds (the one
    # with an adjoined initial object; the category of elements) reaches
    # its largest size within the caps, and no law records a failure.
    seeds = range(0, 100)
    sizes = [size(generate_campaign_instance(theorem, s, params)) for s in seeds]
    assert max(sizes) == largest
    assert run_campaign(theorem, seeds, params).clean


# sha256 over seeds 0..39: for each law, every document's canonical text
# followed by its verdict detail; for each kind, every document's text.
# A clean campaign's JSON holds only counts, so these are what pin the
# generated bytes.
PINNED = {
    "product": "6f8927097e8f7659b76b898eca56d0fbe8dd317512a82704f594ad4dee654e3e",
    "transfer": "24c7977527c65edd6262e72a8d4102faebe72ed5837c34f2b121842bdd795604",
    "coslice": "4e6b1d82271b55654555524cb20fe63aa317805c3c633f02938b5e364a7d8a66",
    "initial": "3a9d49fb4634bce5f7ad2240cd73896e0e720599d5d213715f4a659df2a115b5",
    "poset-oracle": "746803e276ee8e188880d0222f0e9ce69859f01a61fd6715b9299a4ef285c67c",
    "sm-bridge": "950405b50855fcbf8bdab9b97b8db77199592894146d55c71d6d7cc4997caf8f",
    "star-bridge": "7db6011fd8ab33a6c421058f8a3ab9dc64c018cc3900574bc248936d2923fd60",
    "coproduct-coslice": "6e79759afa3f7293275e0bef85d6fcf10a21c35d8ffb17ecda8576b64d9b28c1",
    "poset": "c764220f0257e18864d4a444082af116bcf97705fd8fbf7f8a220688e85fef4d",
    "monoid": "7a19b6b67a07f95e47701d416ef619d0b5311a549d6807bbf6871076b25af464",
    "category": "f1b17ee9b012a3aa94a1aa390e0a6869c07ddf7fdac6edc8d6b5b96b6f023ef9",
    "copresheaf": "a1cd6045f8755c136216486445cfe0c8e3a05bc21b0174253cf04b19f5b875b3",
    "system": "5252f90a89d875385b7aeb10bdb77367e7e5f3661a44cb4a4ba6909faade0f88",
    "domination-pair": "fe9f034c209bd63c365a124e220ee5a8072cd1a24261d185c89ae352820274dc",
}


def test_generated_bytes_pinned():
    got = {}
    for theorem in THEOREMS:
        h = hashlib.sha256()
        for s in range(40):
            doc = generate_campaign_instance(theorem, s, PARAMS)
            h.update(serialize_document(doc).encode())
            h.update(evaluate_instance(theorem, doc)[1].encode())
        got[theorem] = h.hexdigest()
    for kind in KINDS:
        h = hashlib.sha256()
        for s in range(40):
            h.update(serialize_document(generate_instance(kind, s)).encode())
        got[kind] = h.hexdigest()
    assert got == PINNED


def test_transport_certificates_pinned():
    # sha256 over seeds 0..39 at default params: every factor projection of a
    # strongly movable product, and (F, G, phi) of every coproduct-coslice
    # domination.  Campaign JSON holds only counts, so it cannot see these.
    h = hashlib.sha256()
    for s in range(40):
        doc = generate_campaign_instance("product", s)
        prod = product_category([doc.category_of("K1"), doc.category_of("K2")])
        wp = check_strongly_movable(prod.category)
        if isinstance(wp, MovabilityWitness):
            for i in (0, 1):
                h.update(repr(factor_transport(prod, wp, i)).encode())
    assert h.hexdigest() == (
        "d5bc69410016f611de116eee474d0e546b04fc4d5d64ee7a5934225a7b102d82"
    )
    h = hashlib.sha256()
    for s in range(40):
        doc = generate_campaign_instance("coproduct-coslice", s)
        cat = doc.category_of("P")
        designation = doc["coproducts_P"].designation
        for x1 in range(cat.n_objects):
            for x2 in range(cat.n_objects):
                r = coproduct_coslice_domination(cat, designation, x1, x2)
                h.update(repr((r.f, r.g, r.phi)).encode())
    assert h.hexdigest() == (
        "9c2ecefa66c3f333bb4428c6e825d0fea5a5e872ddaab4c368ea23693a039eb0"
    )


COSLICE_PATH_DIGEST = (
    "848a7e9eff1450080595524aa1f342923d45af33968e2efe197f1ceaf11b5423"
)


def test_coproduct_coslice_private_path_matches_public():
    # sha256 over seeds 0..99 at default params: for every pair (x1, x2),
    # (F, G, phi) of the domination, the product witness of the two coslice
    # factors and the witness transferred to the coslice over x1 + x2, all
    # through the public constructions.  The law's path (the construction on
    # one coslice per object, then the transports' private bodies) must give
    # the same values pair by pair.
    h = hashlib.sha256()
    for s in range(100):
        doc = generate_campaign_instance("coproduct-coslice", s)
        cat = doc.category_of("P")
        designation = doc["coproducts_P"].designation
        coslices = [coslice_category(cat, x) for x in range(cat.n_objects)]
        for x1 in range(cat.n_objects):
            for x2 in range(cat.n_objects):
                r = coproduct_coslice_domination(cat, designation, x1, x2)
                ws = [check_strongly_movable(l.category) for l in r.coslice_factors]
                wl = product_transport(r.product, ws)
                wk = weak_domination_transfer(r.f, r.g, r.phi, wl)
                h.update(repr((r.f, r.g, r.phi, wl, wk)).encode())
                p = coproduct_coslice_domination(
                    cat, designation, x1, x2, lambda _, x: coslices[x]
                )
                assert (p.f, p.g, p.phi) == (r.f, r.g, r.phi)
                assert _product_transport(p.product, ws) == wl
                assert _weak_domination_transfer(p.f, p.g, p.phi, wl) == wk
    assert h.hexdigest() == COSLICE_PATH_DIGEST


def test_coproduct_coslice_law_builds_and_checks_once(monkeypatch):
    # Per document of n objects: one coslice per object, one check per
    # factor witness, one run of the public construction per pair, and one
    # output check in each of the two transports per pair.  Rebuilding per
    # pair costs 3n^2 coslices and 5n^2 checks.
    calls = {"coslice": 0, "valid": 0, "domination": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    coslice = counted("coslice", coslice_category)
    valid = counted("valid", movability.witness_valid)
    monkeypatch.setattr(
        campaign,
        "coproduct_coslice_domination",
        counted("domination", campaign.coproduct_coslice_domination),
    )
    for module in (campaign, search):
        monkeypatch.setattr(module, "coslice_category", coslice)
    for module in (campaign, movability):
        monkeypatch.setattr(module, "witness_valid", valid)
    sizes = set()
    for s in range(12):
        doc = generate_campaign_instance("coproduct-coslice", s)
        n = doc.category_of("P").n_objects
        sizes.add(n)
        calls.update(coslice=0, valid=0, domination=0)
        assert evaluate_instance("coproduct-coslice", doc)[0]
        assert calls == {
            "coslice": n,
            "valid": n + 2 * n * n,
            "domination": n * n,
        }, (s, n)
    assert len(sizes) > 1


def test_every_poset_on_at_most_five_elements():
    # One poset per isomorphism class: the class counts are OEIS A000112,
    # and the join-semilattices among them OEIS A006966 shifted by one (a
    # lattice less its bottom), so an enumerator that lists fewer fails.
    def movable(cat):
        return isinstance(check_strongly_movable(cat), MovabilityWitness)

    classes, semilattices, n_movable = [], [], 0
    for n in range(1, 6):
        relations = posets_up_to_iso(n)
        classes.append(len(relations))
        semilattices.append(0)
        for rel in relations:
            entity = PosetEntity("P", make_poset([f"p{i}" for i in range(n)], rel))
            cat = entity.category
            verdict = movable(cat)
            assert verdict == poset_has_downset_minima(entity.poset), rel
            n_movable += verdict
            assert all(movable(coslice_category(cat, x).category) for x in range(n))
            assert movable(add_initial_object(cat))
            try:
                designation = semilattice_designation(cat, entity.poset)
            except NoDesignatedCoproducts:
                continue
            semilattices[-1] += 1
            doc = Document([entity, CoproductsEntity("P", designation)])
            assert evaluate_instance("coproduct-coslice", doc)[0], rel
    assert classes == [1, 2, 5, 16, 63]
    assert semilattices == [1, 1, 2, 5, 15]
    assert n_movable == 45


def test_unknown_theorem_rejected():
    with pytest.raises(UnknownTheorem):
        run_campaign("no-such-law", range(0, 1), PARAMS)
    with pytest.raises(UnknownTheorem):
        evaluate_instance("no-such-law", parse_document("poset P { elements a }"))
    with pytest.raises(UnknownTheorem):
        generate_campaign_instance("no-such-law", 0)


def test_seed_range_of_other_step_rejected():
    # The report names its window by the range's ends, which describe the
    # seeds run only for a step of 1.
    for seeds in (range(0, 10, 3), range(5, 0, -1)):
        with pytest.raises(ParamsOutOfRange):
            run_campaign("poset-oracle", seeds, PARAMS)


def test_transfer_law_sometimes_exercised():
    report = run_campaign("transfer", range(0, 30), PARAMS)
    assert report.clean
    # determinism of details is covered by the JSON test; here make sure
    # the law is not vacuous over a modest range
    exercised = sum(
        "exercised" in evaluate_instance(
            "transfer", generate_campaign_instance("transfer", s, PARAMS)
        )[1]
        for s in range(30)
    )
    assert exercised >= 5



def test_transfer_is_vacuous_when_l_is_not_strongly_movable():
    # K = L = the V poset: the identity is a weak domination, but L is not
    # strongly movable, so there is no witness to transfer.
    v = "elements a b c ; leq a c ; leq b c }\n"
    doc = parse_document("poset K { " + v + "poset L { " + v)
    assert search.find_weak_domination(doc.category_of("K"), doc.category_of("L")).found
    assert evaluate_instance("transfer", doc) == (
        True, "vacuous: L not strongly movable"
    )

CHAIN2 = "poset C { elements a b ; leq a b }\n"
CATEGORY_P = "category P { objects a0 a1 ; arrows le0_1: a0 -> a1 ; }\n"
CONELESS = CHAIN2 + "poset I { elements i }\nsystem S in C over I { object i => a }\n"


@pytest.mark.parametrize(
    "theorem, text, message",
    [
        ("poset-oracle", CATEGORY_P, "P is a category, expected poset"),
        ("sm-bridge", "poset S { elements a }", "S is a poset, expected system"),
        ("star-bridge", "poset S { elements a }", "S is a poset, expected system"),
        ("sm-bridge", CONELESS, "S carries no cone"),
        ("star-bridge", CONELESS, "S carries no cone"),
        (
            "coproduct-coslice",
            CHAIN2.replace(" C ", " P ") + "poset coproducts_P { elements x }",
            "coproducts_P is a poset, expected coproducts",
        ),
    ],
    ids=[
        "P-category",
        "sm-S-poset",
        "star-S-poset",
        "sm-no-cone",
        "star-no-cone",
        "coproducts-poset",
    ],
)
def test_wrong_entity_kind_is_a_recorded_failure(theorem, text, message):
    detail = f"UnresolvedReference: {message}"
    assert evaluate_instance(theorem, parse_document(text)) == (False, detail)
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("doc.cat", "w", encoding="utf-8") as fh:
            fh.write(text)
        res = runner.invoke(main, ["campaign", theorem, "--replay", "doc.cat"])
    assert isinstance(res.exception, SystemExit) and res.exit_code == 1
    assert res.output == f"fail: {detail}\n"


# The C11 regression oracle: sha256 of run_campaign(law, range(0, 300))
# .to_json() at default params, for every law.
CAMPAIGN_DIGESTS = {
    "product": "3bf99985baf5e048d5d7890b1d5bfa8d758dc9220945a4f94d62f513e459abe0",
    "transfer": "db7985a2132a4369b5dedfd9ab866fbfce3a3fa480aa9849a9e91836753d5a85",
    "coslice": "595addf1dea006d0cd818582391515b938678863073d444aa435d3d9626349af",
    "initial": "0a6d27f040f7023705ec96516da0ef19101c6f825ba0c4c2e5d6556fdba97278",
    "poset-oracle": "76fccb38ca7fa95c61afcc56f2f8abfb777fd5a32c1d692a64147c55001535bc",
    "sm-bridge": "c378ef9c84a087a838016fa3ec41c1c8e48e2812edc134aa189544fb8ebe3962",
    "star-bridge": "bfb0babe901e3bf1fb86e0024f2ffb4ca24f922927e385fe8068dcfe88d7d3bd",
    "coproduct-coslice": "e163f9090e176c84277896a852345910f028b42b59296374073704f3bac7ae9b",
}


def test_campaign_reports_pinned():
    got = {
        law: hashlib.sha256(
            run_campaign(law, range(0, 300)).to_json().encode()
        ).hexdigest()
        for law in THEOREMS
    }
    assert got == CAMPAIGN_DIGESTS


# ---------------------------------------------------------------------------
# Each law's own comparison, seen to fail: a decider that the law imports in
# movcat.campaign is swapped for one that lies in one targeted way.

NOT_MOVABLE = Counterexample(0, ())


def _lie(monkeypatch, name, lie):
    """Swap ``campaign.<name>`` for a decider giving ``lie(answer, *args)``
    in place of its real answer.  Returns the list that records each call
    on which the given answer was not the real one."""
    real = getattr(campaign, name)
    told = []

    def decider(*args):
        answer = real(*args)
        given = lie(answer, *args)
        if given is not answer:
            told.append(args)
        return given

    monkeypatch.setattr(campaign, name, decider)
    return told


def _refuted(w, *_):
    return NOT_MOVABLE if isinstance(w, MovabilityWitness) else w


def _sm2_refuted(w, system, cone):
    return SMCounterexample(0, {}) if isinstance(w, SM2Witness) else w


def _one_lift_changed(w, k):
    """``w`` with its last lift replaced by a ref naming no morphism of k."""
    if not isinstance(w, MovabilityWitness):
        return w
    return dataclasses.replace(w, lifts=w.lifts[:-1] + (k.n_mors,))


def _lie_is_caught(monkeypatch, theorem, told, detail, seeds=range(0, 40)):
    # Every instance on which a lie was told fails with the law's own detail
    # (a string, or a function of the document); every other one passes.
    # Once the lie is undone, each failing document, stored as a campaign
    # stores it, replays to a pass.
    stored = []
    for s in seeds:
        doc = generate_campaign_instance(theorem, s, PARAMS)
        told.clear()
        ok, got = evaluate_instance(theorem, doc)
        if told:
            want = detail(doc) if callable(detail) else detail
            assert (ok, got) == (False, want), s
            stored.append(serialize_document(doc))
        else:
            assert ok, (s, got)
    monkeypatch.undo()
    assert stored
    for text in stored:
        assert evaluate_instance(theorem, parse_document(text))[0]


def test_product_law_sees_a_wrong_product_verdict(monkeypatch):
    # The decider refutes a movable product and answers its factors truly.
    products = []

    def recorded(factors):
        prod = product_category(factors)
        products.append(prod.category)
        return prod

    monkeypatch.setattr(campaign, "product_category", recorded)
    told = _lie(
        monkeypatch,
        "check_strongly_movable",
        lambda w, k: _refuted(w) if products and k is products[-1] else w,
    )
    _lie_is_caught(
        monkeypatch,
        "product",
        told,
        "product verdict differs from conjunction of factors",
    )


def test_transfer_law_sees_a_changed_lift(monkeypatch):
    told = _lie(monkeypatch, "check_strongly_movable", _one_lift_changed)
    _lie_is_caught(
        monkeypatch,
        "transfer",
        told,
        "VerificationFailed: witness of L does not verify",
    )


def test_coslice_law_sees_a_refuted_coslice(monkeypatch):
    told = _lie(monkeypatch, "check_strongly_movable", _refuted)

    def detail(doc):
        first = doc.category_of("K").object_names[0]
        return f"coslice under object {first} not movable"

    _lie_is_caught(monkeypatch, "coslice", told, detail)


def test_initial_law_sees_a_refuted_category(monkeypatch):
    told = _lie(monkeypatch, "check_strongly_movable", _refuted)
    _lie_is_caught(
        monkeypatch,
        "initial",
        told,
        "category with fresh initial object not movable",
    )


def test_poset_oracle_law_sees_a_refuted_poset(monkeypatch):
    told = _lie(monkeypatch, "check_strongly_movable", _refuted)
    _lie_is_caught(
        monkeypatch,
        "poset-oracle",
        told,
        "thin-category verdict False vs order oracle True",
    )


def test_star_bridge_law_sees_a_refuted_star_condition(monkeypatch):
    told = _lie(
        monkeypatch,
        "check_star",
        lambda s, h: StarCounterexample((0, 0), {})
        if isinstance(s, StarWitness)
        else s,
    )
    _lie_is_caught(
        monkeypatch,
        "star-bridge",
        told,
        "direct condition disagrees with elements-category verdict",
    )


def test_star_bridge_law_sees_a_refuted_sm2(monkeypatch):
    # SM2 is asked only of an associated system over a directed index, where
    # it must agree with the star condition.
    told = _lie(monkeypatch, "check_sm2", _sm2_refuted)
    _lie_is_caught(
        monkeypatch,
        "star-bridge",
        told,
        "associated system: SM2 disagrees with condition",
    )


def test_sm_bridge_law_sees_a_refuted_sm2(monkeypatch):
    told = _lie(monkeypatch, "check_sm2", _sm2_refuted)
    _lie_is_caught(
        monkeypatch, "sm-bridge", told, "SM1 with a compatible cone but SM2 fails"
    )


def test_sm_bridge_law_sees_sm1_refuted_on_a_directed_index(monkeypatch):
    told = _lie(
        monkeypatch,
        "check_sm1",
        lambda w, system: SMCounterexample(0, {})
        if system.directed and isinstance(w, SM1Witness)
        else w,
    )
    _lie_is_caught(monkeypatch, "sm-bridge", told, "SM1 fails on a directed index")


def test_coproduct_coslice_law_sees_a_refuted_coslice(monkeypatch):
    # Only the first coslice of each document is refuted; the law must stop
    # before it builds any domination.
    told = _lie(
        monkeypatch,
        "check_strongly_movable",
        lambda w, k: w if told else _refuted(w),
    )
    dominations = []
    monkeypatch.setattr(
        campaign, "coproduct_coslice_domination", lambda *a: dominations.append(a)
    )
    _lie_is_caught(
        monkeypatch,
        "coproduct-coslice",
        told,
        "coslice factor unexpectedly not movable",
        seeds=range(0, 12),
    )
    assert dominations == []


def test_coproduct_coslice_law_sees_a_changed_lift(monkeypatch):
    told = _lie(monkeypatch, "check_strongly_movable", _one_lift_changed)
    _lie_is_caught(
        monkeypatch,
        "coproduct-coslice",
        told,
        "VerificationFailed: factor witness does not verify",
        seeds=range(0, 12),
    )


def test_sm_bridge_law_decides_sm2_at_most_once(monkeypatch):
    # The associated-system conditions are not asked, and SM2 is asked only
    # where SM1 holds under a compatible cone.
    calls = {"associated": 0, "sm2": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        campaign, "check_associated", counted("associated", campaign.check_associated)
    )
    monkeypatch.setattr(campaign, "check_sm2", counted("sm2", campaign.check_sm2))
    asked = 0
    for s in range(300):
        calls.update(associated=0, sm2=0)
        assert evaluate_instance(
            "sm-bridge", generate_campaign_instance("sm-bridge", s)
        )[0]
        assert calls["associated"] == 0 and calls["sm2"] <= 1, (s, calls)
        asked += calls["sm2"]
    assert asked > 0


def test_bridge_laws_decide_compatibility_at_most_once(monkeypatch):
    # star-bridge leaves cone compatibility to check_associated, whose cond1
    # it is; sm-bridge asks it once, and only where SM1 holds.
    seen = {"compatible": 0, "sm1": False}

    def compatible(*args):
        seen["compatible"] += 1
        return cone_compatible(*args)

    def sm1(system):
        res = check_sm1(system)
        seen["sm1"] = isinstance(res, SM1Witness)
        return res

    monkeypatch.setattr(campaign, "cone_compatible", compatible)
    monkeypatch.setattr(campaign, "check_sm1", sm1)
    asked = 0
    for law in ("star-bridge", "sm-bridge"):
        for s in range(300):
            seen.update(compatible=0, sm1=False)
            assert evaluate_instance(law, generate_campaign_instance(law, s))[0]
            limit = int(seen["sm1"]) if law == "sm-bridge" else 0
            assert seen["compatible"] <= limit, (law, s, seen)
            asked += seen["compatible"]
    assert asked > 0
