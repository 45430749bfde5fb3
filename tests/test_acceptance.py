"""End-to-end acceptance gate.

Each test exercises one headline guarantee over a large randomized sample
and prints a single pass/fail line so the whole gate can be read at a
glance from the pytest output.
"""

import random
import time

from movcat.builders import add_initial_object
from movcat.campaign import (
    evaluate_instance,
    generate_campaign_instance,
    run_campaign,
)
from movcat.dsl import parse_document, serialize_document
from movcat.generators import (
    KINDS,
    GenParams,
    generate_instance,
    random_category,
)
from movcat.movability import (
    Counterexample,
    MovabilityWitness,
    check_strongly_movable,
)
from movcat.search import find_functorial_domination, find_weak_domination
from util import chain, naive_strongly_movable, v_poset_category

SMALL = GenParams(max_objects=4, max_morphisms=16, max_fiber=3)


def _report(capsys, number, title, ok, detail=""):
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"\n[{number:>2}/11] {title}: {'pass' if ok else 'FAIL'}{suffix}")
    assert ok, f"{title}: {detail}"


def test_c01_oracle_agreement_on_500_categories(capsys):
    start = time.monotonic()
    mismatches = 0
    for seed in range(500):
        rng = random.Random(f"acceptance-oracle:{seed}")
        cat = random_category(rng, SMALL)
        fast = isinstance(check_strongly_movable(cat), MovabilityWitness)
        if fast != naive_strongly_movable(cat):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 60
    _report(
        capsys, 1, "movability decision vs naive oracle on 500 categories",
        ok, f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_c02_initial_object_forces_movability(capsys):
    report = run_campaign("initial", range(0, 200), SMALL)
    extra = isinstance(
        check_strongly_movable(add_initial_object(v_poset_category())),
        MovabilityWitness,
    )
    ok = report.clean and report.instances == 200 and extra
    _report(
        capsys, 2, "200 categories movable after adjoining an initial object",
        ok, f"{report.passes}/{report.instances} clean",
    )


def test_c03_coslices_always_movable(capsys):
    report = run_campaign("coslice", range(0, 200), SMALL)
    ok = report.clean and report.instances == 200
    _report(
        capsys, 3, "every coslice strongly movable over 200 categories",
        ok, f"{report.passes}/{report.instances} clean",
    )


def test_c04_poset_movability_matches_order_oracle(capsys):
    report = run_campaign("poset-oracle", range(0, 300), SMALL)
    chain_ok = isinstance(check_strongly_movable(chain(3)), MovabilityWitness)
    v_res = check_strongly_movable(v_poset_category())
    v_ok = isinstance(v_res, Counterexample) and v_res.obj == 2
    ok = report.clean and chain_ok and v_ok
    _report(
        capsys, 4, "thin-category movability vs order oracle on 300 posets",
        ok, f"{report.passes}/{report.instances} clean; chain passes, fork fails",
    )


def test_c05_product_movability_and_transports(capsys):
    report = run_campaign("product", range(0, 500), SMALL)
    ok = report.clean and report.instances == 500
    _report(
        capsys, 5, "product verdicts and witness transports on 500 pairs",
        ok, f"{report.passes}/{report.instances} clean",
    )


def test_c06_domination_transfer(capsys):
    exercised = 0
    failures = 0
    for seed in range(150):
        doc = generate_campaign_instance("transfer", seed, SMALL)
        verdict, detail = evaluate_instance("transfer", doc)
        failures += not verdict
        exercised += detail.startswith("exercised")
    strict = find_functorial_domination(v_poset_category(), chain(3))
    weak = find_weak_domination(v_poset_category(), chain(3))
    negative_ok = (
        strict.found is None and not strict.truncated
        and weak.found is None and not weak.truncated
    )
    ok = failures == 0 and exercised >= 100 and negative_ok
    _report(
        capsys, 6, "movability transfer along weak domination",
        ok, f"{exercised} exercised / 150, {failures} failures, "
            f"negative case exhaustive",
    )


def test_c07_system_condition_bridge(capsys):
    failures = 0
    sm1_failures = 0
    nondirected = 0
    for seed in range(300):
        doc = generate_campaign_instance("sm-bridge", seed, SMALL)
        verdict, detail = evaluate_instance("sm-bridge", doc)
        failures += not verdict
        sm1_failures += detail == "sm1=fail"
        nondirected += not doc["S"].system.directed
    ok = failures == 0 and sm1_failures >= 20 and nondirected >= 30
    _report(
        capsys, 7, "system-condition bridge laws on 300 systems with cones",
        ok, f"{failures} failures, {sm1_failures} SM1-negative, "
            f"{nondirected} non-directed indices",
    )


def test_c08_pointwise_condition_vs_elements_and_sm2(capsys):
    failures = 0
    exercised = 0
    for seed in range(300):
        doc = generate_campaign_instance("star-bridge", seed, SMALL)
        verdict, detail = evaluate_instance("star-bridge", doc)
        failures += not verdict
        exercised += detail.startswith("exercised")
    ok = failures == 0 and exercised >= 50
    _report(
        capsys, 8, "pointwise condition vs elements category and SM2",
        ok, f"{failures} failures, {exercised} associated triples exercised",
    )


def test_c09_coproduct_coslice_domination(capsys):
    report = run_campaign("coproduct-coslice", range(0, 50), SMALL)
    ok = report.clean and report.instances == 50
    _report(
        capsys, 9, "coslice-over-coproduct domination on 50 join-semilattices",
        ok, f"{report.passes}/{report.instances} clean",
    )


def test_c10_document_roundtrip_1000(capsys):
    count = 0
    broken = 0
    per_kind = 1000 // len(KINDS) + 1
    for kind in KINDS:
        for seed in range(per_kind):
            text = serialize_document(generate_instance(kind, seed, SMALL))
            if serialize_document(parse_document(text)) != text:
                broken += 1
            count += 1
    ok = broken == 0 and count >= 1000
    _report(
        capsys, 10, "parse/serialize identity on generated documents",
        ok, f"{count} documents, {broken} mismatches",
    )


def test_c11_reports_deterministic(capsys):
    ok = True
    for theorem in ("product", "sm-bridge", "star-bridge"):
        a = run_campaign(theorem, range(0, 25), SMALL).to_json()
        b = run_campaign(theorem, range(0, 25), SMALL).to_json()
        ok &= a == b
    _report(
        capsys, 11, "byte-identical campaign reports across runs",
        ok,
    )
