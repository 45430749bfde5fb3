import hashlib

import pytest
from click.testing import CliRunner

from movcat import campaign, movability, search
from movcat.builders import coslice_category, product_category
from movcat.campaign import (
    THEOREMS,
    evaluate_instance,
    generate_campaign_instance,
    run_campaign,
)
from movcat.cli import main
from movcat.dsl import parse_document, serialize_document
from movcat.errors import ParamsOutOfRange, UnknownTheorem
from movcat.generators import KINDS, GenParams, generate_instance
from movcat.movability import (
    MovabilityWitness,
    _product_transport,
    _weak_domination_transfer,
    check_strongly_movable,
    factor_transport,
    product_transport,
    weak_domination_transfer,
)
from movcat.search import coproduct_coslice_domination
from util import fail_every_verdict

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
    ],
)
def test_campaign_params_checked(theorem, params):
    # Checked before the seed loop, so an empty range is no escape.
    for seeds in (range(0, 20), range(0)):
        with pytest.raises(ParamsOutOfRange):
            run_campaign(theorem, seeds, params)


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


def test_unknown_theorem_rejected():
    with pytest.raises(UnknownTheorem):
        run_campaign("no-such-law", range(0, 1), PARAMS)
    with pytest.raises(UnknownTheorem):
        evaluate_instance("no-such-law", parse_document("poset P { elements a }"))


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
