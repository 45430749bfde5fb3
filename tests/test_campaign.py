import pytest

from movcat.campaign import (
    THEOREMS,
    evaluate_instance,
    generate_campaign_instance,
    run_campaign,
)
from movcat.dsl import parse_document
from movcat.errors import UnknownTheorem
from movcat.generators import GenParams

PARAMS = GenParams(max_objects=4, max_morphisms=16, max_fiber=3)


def test_all_theorems_clean_on_small_range():
    for theorem in THEOREMS:
        report = run_campaign(theorem, range(0, 10), PARAMS)
        assert report.instances == 10
        assert report.passes + len(report.failures) == report.instances
        assert report.clean, (theorem, report.failures[:1])


def test_negate_hook_inverts_every_verdict():
    report = run_campaign("product", range(0, 10), PARAMS, negate=True)
    assert report.passes == 0
    assert len(report.failures) == 10


def test_reports_byte_identical_across_runs():
    for theorem in ("product", "sm-bridge"):
        a = run_campaign(theorem, range(0, 12), PARAMS).to_json()
        b = run_campaign(theorem, range(0, 12), PARAMS).to_json()
        assert a == b


def test_json_has_no_timing():
    report = run_campaign("coslice", range(0, 3), PARAMS)
    assert report.wall_time > 0
    assert "wall_time" not in report.to_json()


def test_negated_failures_replay():
    # Negated verdicts mark passing documents as failures; replaying the
    # stored document must reproduce the original (un-negated) verdict.
    report = run_campaign("initial", range(0, 5), PARAMS, negate=True)
    for failure in report.failures:
        ok, _ = evaluate_instance("initial", parse_document(failure["document"]))
        assert ok


def test_campaign_instance_determinism():
    from movcat.dsl import serialize_document

    for theorem in THEOREMS:
        a = serialize_document(generate_campaign_instance(theorem, 3, PARAMS))
        b = serialize_document(generate_campaign_instance(theorem, 3, PARAMS))
        assert a == b


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
