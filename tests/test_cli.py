import json

from click.testing import CliRunner

from movcat.cli import main
from movcat.dsl import parse_document

CHAIN3 = "poset C3 { elements a b c ; leq a b ; leq b c }"
V = "poset V { elements a b c ; leq a c ; leq b c }"
BOTH = CHAIN3 + "\n" + V


def invoke(args, files=None):
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, text in (files or {}).items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        result = runner.invoke(main, args)
        outputs = {}
        for a in args:
            if isinstance(a, str) and a.endswith(".out.cat"):
                try:
                    with open(a, encoding="utf-8") as fh:
                        outputs[a] = fh.read()
                except FileNotFoundError:
                    pass
        return result, outputs


def test_check_strong_movable_pass():
    res, _ = invoke(
        ["check", "doc.cat", "--entity", "C3"], {"doc.cat": CHAIN3}
    )
    assert res.exit_code == 0
    assert "strong-movable (witness found)" in res.output
    assert "mover a" in res.output


def test_check_strong_movable_fail_prints_document():
    res, _ = invoke(["check", "doc.cat", "--entity", "V"], {"doc.cat": V})
    assert res.exit_code == 1
    assert "not strong-movable" in res.output
    assert "defeated at object c" in res.output
    assert "poset V {" in res.output


def test_check_relative_movability_via_functor():
    doc = (
        "category K { objects A B ; arrows f : A -> B ; arrows g : A -> B ; }\n"
        "category T { objects X ; }\n"
        "functor F : K -> T { object A => X ; object B => X ; "
        "arrow f => id_X ; arrow g => id_X ; }\n"
    )
    res, _ = invoke(
        ["check", "doc.cat", "--entity", "K", "--property", "movable", "--via", "F"],
        {"doc.cat": doc},
    )
    assert res.exit_code == 0
    res2, _ = invoke(
        ["check", "doc.cat", "--entity", "K", "--property", "movable"],
        {"doc.cat": doc},
    )
    assert res2.exit_code == 2


def test_check_bad_input_exit_2():
    res, _ = invoke(["check", "missing.cat", "--entity", "X"])
    assert res.exit_code == 2
    res, _ = invoke(
        ["check", "doc.cat", "--entity", "X"], {"doc.cat": "poset P { elements a"}
    )
    assert res.exit_code == 2


def test_search_domination_found_and_none():
    res, _ = invoke(
        ["search", "domination", "doc.cat", "C3", "C3"], {"doc.cat": BOTH}
    )
    assert res.exit_code == 0 and "found" in res.output
    res, _ = invoke(
        ["search", "domination", "doc.cat", "V", "C3"], {"doc.cat": BOTH}
    )
    assert res.exit_code == 1 and "none (exhaustive)" in res.output
    res, _ = invoke(
        ["search", "domination", "doc.cat", "V", "C3", "--weak", "--budget", "2"],
        {"doc.cat": BOTH},
    )
    assert res.exit_code == 1 and "budget exhausted" in res.output


def test_build_product_output_parses():
    res, outs = invoke(
        ["build", "product", "doc.cat", "C3", "V", "-o", "prod.out.cat"],
        {"doc.cat": BOTH},
    )
    assert res.exit_code == 0
    doc = parse_document(outs["prod.out.cat"])
    assert doc["product_C3_V"].category.n_objects == 9


def test_build_coslice_output_parses():
    res, outs = invoke(
        ["build", "coslice", "doc.cat", "C3", "a", "-o", "cos.out.cat"],
        {"doc.cat": CHAIN3},
    )
    assert res.exit_code == 0
    doc = parse_document(outs["cos.out.cat"])
    assert doc["coslice_C3_a"].category.n_objects == 3


def test_build_elements_output_parses():
    text = (
        "poset B { elements p q ; leq p q }\n"
        "copresheaf H on B { at p = { x } ; at q = { y } ; "
        "act le_p_q { x => y ; } }\n"
    )
    # arrow name in a poset category is deterministic; discover it first
    base_doc = parse_document("poset B { elements p q ; leq p q }")
    arrow = base_doc.category_of("B").mor_names[-1]
    text = text.replace("le_p_q", arrow)
    res, outs = invoke(
        ["build", "elements", "doc.cat", "H", "-o", "el.out.cat"],
        {"doc.cat": text},
    )
    assert res.exit_code == 0
    doc = parse_document(outs["el.out.cat"])
    assert doc["elements_H"].category.n_objects == 2


def test_system_check_pass_and_fail():
    base_doc = parse_document(CHAIN3)
    cat = base_doc.category_of("C3")
    b_to_a = cat.mor_names[cat.hom(0, 1)[0]]
    good = (
        CHAIN3 + "\n"
        "poset I { elements i j ; leq i j }\n"
        f"system S in C3 over I {{ object i => b ; object j => a ; "
        f"bond i j => {b_to_a} ; }}\n"
    )
    res, _ = invoke(
        ["system", "check", "doc.cat", "--entity", "S"], {"doc.cat": good}
    )
    assert res.exit_code == 0
    assert "sm1: pass" in res.output

    bad = (
        V + "\n"
        "poset I { elements o x y ; leq o x ; leq o y }\n"
    )
    vcat = parse_document(V).category_of("V")
    leg1 = vcat.mor_names[vcat.hom(0, 2)[0]]
    leg2 = vcat.mor_names[vcat.hom(1, 2)[0]]
    bad += (
        f"system S in V over I {{ object o => c ; object x => a ; object y => b ; "
        f"bond o x => {leg1} ; bond o y => {leg2} ; }}\n"
    )
    res, _ = invoke(
        ["system", "check", "doc.cat", "--entity", "S"], {"doc.cat": bad}
    )
    assert res.exit_code == 1
    assert "sm1: fail" in res.output
    assert "system S" in res.output  # document echoed for replay


def test_campaign_json_deterministic_and_clean():
    out1, _ = invoke(["campaign", "poset-oracle", "--seeds", "0..8", "--json"])
    out2, _ = invoke(["campaign", "poset-oracle", "--seeds", "0..8", "--json"])
    assert out1.exit_code == 0 and out2.exit_code == 0
    assert out1.output == out2.output
    payload = json.loads(out1.output)
    assert payload["instances"] == 8 and payload["failures"] == []


def test_campaign_negate_and_replay():
    res, _ = invoke(["campaign", "initial", "--seeds", "0..3", "--negate"])
    assert res.exit_code == 1
    # extract the first replayable document from the failure listing
    body = res.output.split("seed 0:", 1)[1]
    doc_text = body.split("\n", 1)[1].split("seed 1:", 1)[0]
    res2, _ = invoke(
        ["campaign", "initial", "--replay", "doc.cat"], {"doc.cat": doc_text}
    )
    assert res2.exit_code == 0
    assert res2.output.startswith("pass")


def test_campaign_bad_seeds_exit_2():
    res, _ = invoke(["campaign", "initial", "--seeds", "nope"])
    assert res.exit_code == 2
