import hashlib
import json
import os
import random
import runpy
import sys

import pytest

from click.testing import CliRunner

from movcat.cli import main
from movcat.dsl import parse_document, serialize_document
from movcat.generators import generate_instance
from util import fail_every_verdict

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
        ["check", "doc.cat", "--entity", "K", "--via", "F"], {"doc.cat": doc}
    )
    assert res.exit_code == 0
    assert res.output.startswith("K: movable (witness found)")
    res2, _ = invoke(
        ["check", "doc.cat", "--entity", "K", "--via", "NOPE"], {"doc.cat": doc}
    )
    assert res2.exit_code == 2
    assert "UnresolvedReference: no entity named 'NOPE'" in res2.output
    res3, _ = invoke(
        ["check", "doc.cat", "--entity", "T", "--via", "F"], {"doc.cat": doc}
    )
    assert res3.exit_code == 2
    assert "error: --via F is not a functor out of T" in res3.output


def test_check_bad_input_exit_2():
    res, _ = invoke(["check", "missing.cat", "--entity", "X"])
    assert res.exit_code == 2
    res, _ = invoke(
        ["check", "doc.cat", "--entity", "X"], {"doc.cat": "poset P { elements a"}
    )
    assert res.exit_code == 2


def test_check_unreadable_input_exit_2():
    runner = CliRunner()
    with runner.isolated_filesystem():
        os.mkdir("dir.cat")
        with open("latin1.cat", "wb") as fh:
            fh.write("poset P { elements caf\xe9 }".encode("latin-1"))
        for path, message in (
            ("dir.cat", "error: cannot read dir.cat: Is a directory"),
            ("latin1.cat", "error: latin1.cat is not UTF-8 text"),
        ):
            res = runner.invoke(main, ["check", path, "--entity", "P"])
            assert res.exit_code == 2, path
            assert message in res.output
            assert res.exception is None or isinstance(res.exception, SystemExit)


def check_bytes(data: bytes):
    """`movcat check` on a file holding ``data``, for the entity P."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("doc.cat", "wb") as fh:
            fh.write(data)
        return runner.invoke(main, ["check", "doc.cat", "--entity", "P"])


def test_check_reads_cr_and_crlf_as_line_ends():
    """A lone CR ends a line, as CRLF does, so errors name the line a text
    editor shows."""
    res = check_bytes(b"poset P {\r elements a ;\r\n leq a b }")
    assert res.exit_code == 2
    assert "UnresolvedReference: element 'b' (line 3)" in res.output
    res = check_bytes(b"poset P {\r elements a ;\r\n leq a @ }")
    assert res.exit_code == 2
    assert "line 3, col 8: expected identifier or punctuation, found '@'" in res.output


BOM = "\ufeff".encode()


def test_check_ignores_one_leading_byte_order_mark():
    """A file that starts with a byte-order mark reads as the file without
    it: same output, same exit code, whether it passes, fails or errs."""
    unknown, bad = "poset P { elements a ; leq a b }", "poset P { elements a @ }"
    codes = []
    for text in (CHAIN3, V, unknown, bad):
        entity = text.split()[1]
        runner = CliRunner()
        with runner.isolated_filesystem():
            with open("plain.cat", "wb") as fh:
                fh.write(text.encode())
            with open("bom.cat", "wb") as fh:
                fh.write(BOM + text.encode())
            plain = runner.invoke(main, ["check", "plain.cat", "--entity", entity])
            bom = runner.invoke(main, ["check", "bom.cat", "--entity", entity])
        assert (bom.exit_code, bom.output) == (plain.exit_code, plain.output)
        codes.append(bom.exit_code)
    assert codes == [0, 1, 2, 2]


def test_check_byte_order_mark_inside_text_exit_2():
    """Only a leading mark is dropped; a second one, or one after the first
    word, is a bad character at its position."""
    for data, col in (
        (BOM + BOM + b"poset P { elements a }", 1),
        (b"poset P { elements a " + BOM + b"b }", 22),
    ):
        res = check_bytes(data)
        assert res.exit_code == 2
        assert res.output == (
            f"error: line 1, col {col}: expected identifier or punctuation,"
            " found '\\ufeff'\n"
        )


def test_check_bad_byte_after_byte_order_mark_names_its_offset():
    res = check_bytes(BOM + b"po\xffset P { elements a }")
    assert res.exit_code == 2
    assert "doc.cat is not UTF-8 text: invalid start byte at byte 5" in res.output


def test_check_unchecked_keyword_and_oversize_input_exit_2():
    bogus = "poset P { bogus a b ; leq a b }"
    big = "poset P { elements " + " ".join(f"e{i}" for i in range(65)) + " }"
    wide = "category P { objects " + " ".join(f"o{i}" for i in range(65)) + " }"
    for text in (bogus, big, wide):
        res, _ = invoke(["check", "doc.cat", "--entity", "P"], {"doc.cat": text})
        assert res.exit_code == 2
        assert "Traceback" not in res.output


def test_search_domination_found_and_none():
    res, _ = invoke(
        ["search", "domination", "doc.cat", "C3", "C3"], {"doc.cat": BOTH}
    )
    assert res.exit_code == 0 and "found" in res.output
    assert res.output.endswith("\n  G objects: a=>a b=>b c=>c\n")
    res, _ = invoke(
        ["search", "domination", "doc.cat", "V", "C3"], {"doc.cat": BOTH}
    )
    assert res.exit_code == 1 and "none (exhaustive)" in res.output
    # V <~ C3 spends 14 units in the strict phase and 112 in the weak one.
    weak = ["search", "domination", "doc.cat", "V", "C3", "--weak"]
    for extra, verdict in (
        ([], "none (exhaustive)"),
        (["--budget", "2"], "none (budget exhausted)"),
        (["--budget", "125"], "none (budget exhausted)"),
        (["--budget", "126"], "none (exhaustive)"),
    ):
        res, _ = invoke(weak + extra, {"doc.cat": BOTH})
        assert res.exit_code == 1 and verdict in res.output, extra
    res, _ = invoke(weak + ["--budget", "-1"], {"doc.cat": BOTH})
    assert res.exit_code == 2 and "budget" in res.output
    res, _ = invoke(
        ["search", "domination", "doc.cat", "C3", "V", "--weak"], {"doc.cat": BOTH}
    )
    assert res.exit_code == 0
    assert res.output == (
        "found\n  F objects: a=>a b=>a c=>a\n  G objects: a=>a b=>a c=>a\n"
        "  phi: a:id_a b:le0_1 c:le0_2\n"
    )


def test_build_product_output_parses():
    res, outs = invoke(
        ["build", "product", "doc.cat", "C3", "V", "-o", "prod.out.cat"],
        {"doc.cat": BOTH},
    )
    assert res.exit_code == 0
    doc = parse_document(outs["prod.out.cat"])
    assert doc["product_C3_V"].category.n_objects == 9


def test_build_unwritable_output_exit_2():
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("doc.cat", "w", encoding="utf-8") as fh:
            fh.write(CHAIN3)
        os.mkdir("out")
        for path, reason in (
            ("out", "Is a directory"),
            (os.path.join("missing", "p.cat"), "No such file or directory"),
        ):
            res = runner.invoke(
                main, ["build", "product", "doc.cat", "C3", "C3", "-o", path]
            )
            assert res.exit_code == 2, path
            assert f"error: cannot write {path}: {reason}" in res.output
            assert res.exception is None or isinstance(res.exception, SystemExit)


def test_build_coslice_output_parses():
    res, outs = invoke(
        ["build", "coslice", "doc.cat", "C3", "a", "-o", "cos.out.cat"],
        {"doc.cat": CHAIN3},
    )
    assert res.exit_code == 0
    doc = parse_document(outs["cos.out.cat"])
    assert doc["coslice_C3_a"].category.n_objects == 3
    res, outs = invoke(
        ["build", "coslice", "doc.cat", "C3", "z", "-o", "cos.out.cat"],
        {"doc.cat": CHAIN3},
    )
    assert res.exit_code == 2 and not outs
    assert "error: no object 'z' in C3" in res.output


# A valid two-object category with 100 parallel arrows, whose coslice under
# A has 101 objects, and a copresheaf with a 100-element fiber.
PARALLEL = "category C { objects A B ; %s }" % " ".join(
    f"arrows f{i} : A -> B ;" for i in range(100)
)
WIDE_FIBER = "poset B { elements p }\ncopresheaf H on B { at p = { %s } }" % " ".join(
    f"x{i}" for i in range(100)
)


def test_build_over_cap_exit_2_writes_nothing():
    for args, text, count in (
        (["coslice", "doc.cat", "C", "A"], PARALLEL, "101 objects / 201 morphisms"),
        (["elements", "doc.cat", "H"], WIDE_FIBER, "100 objects / 100 morphisms"),
        (["product", "doc.cat", "C", "C"], PARALLEL, "4 objects / 10404 morphisms"),
    ):
        parse_document(text)
        res, outs = invoke(["build"] + args + ["-o", "big.out.cat"], {"doc.cat": text})
        assert res.exit_code == 2, args
        assert not outs, args
        assert "error: SizeBoundExceeded: " in res.output, args
        assert f"has {count}, over the caps of 64 / 4096" in res.output, args


def test_build_empty_category_exit_2_writes_nothing():
    res, outs = invoke(
        ["build", "elements", "doc.cat", "H", "-o", "el.out.cat"],
        {"doc.cat": "poset B { elements p }\ncopresheaf H on B { }"},
    )
    assert res.exit_code == 2
    assert not outs
    assert "error: elements_H has no objects" in res.output


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
    # A system with a cone runs every check by default.
    coned = serialize_document(generate_instance("system", 2))
    res, _ = invoke(
        ["system", "check", "doc.cat", "--entity", "S"], {"doc.cat": coned}
    )
    assert res.exit_code == 0
    assert res.output == (
        "sm1: pass\nsm2: pass\nassociated: pass (1:True 2:True 3:True)\n"
        "star: pass\n"
    )

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


def test_system_check_selection_flags():
    coned = serialize_document(generate_instance("system", 2))
    coneless = (
        CHAIN3 + "\n"
        "poset I { elements i }\n"
        "system S in C3 over I { object i => a }\n"
    )

    def check(text, *flags):
        return invoke(
            ["system", "check", "doc.cat", "--entity", "S", *flags],
            {"doc.cat": text},
        )[0]

    # A flag that needs a cone on a system without one is bad input: exit 2
    # before any condition runs, so no verdict line is printed.
    res = check(coneless, "--sm1", "--star")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: S carries no cone\n"
    # Each flag selects its own line only.
    res = check(coned, "--sm1")
    assert (res.exit_code, res.output) == (0, "sm1: pass\n")
    res = check(coned, "--star")
    assert (res.exit_code, res.output) == (0, "star: pass\n")
    # A check that raises still leaves the lines of the checks before it:
    # this generated cone is incompatible, which SM2 reports as an error.
    incompatible = serialize_document(generate_instance("system", 4))
    res = check(incompatible)
    assert res.exit_code == 2
    assert res.stdout == "sm1: pass\n"
    assert res.stderr.startswith("error: ConeIncompatible: ")


def test_campaign_json_deterministic_and_clean():
    out1, _ = invoke(["campaign", "poset-oracle", "--seeds", "0..8", "--json"])
    out2, _ = invoke(["campaign", "poset-oracle", "--seeds", "0..8", "--json"])
    assert out1.exit_code == 0 and out2.exit_code == 0
    assert out1.output == out2.output
    payload = json.loads(out1.output)
    assert payload["instances"] == 8 and payload["failures"] == []


def test_campaign_failure_exit_1_and_replay(monkeypatch):
    fail_every_verdict(monkeypatch, "initial")
    res, _ = invoke(["campaign", "initial", "--seeds", "0..3"])
    monkeypatch.undo()
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
    # An empty range would report a clean campaign that ran nothing.
    for seeds in ("nope", "5..2", "3..3"):
        res, _ = invoke(["campaign", "initial", "--seeds", seeds])
        assert res.exit_code == 2, seeds
        assert "bad --seeds" in res.output


def _shuffled_poset(rng, n: int, forest: bool) -> str:
    """A poset entity ``K`` of n elements, listed in shuffled order, with
    at most one lower cover per element (a forest) or sparse random
    covers."""
    if forest:
        pairs = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.8]
    else:
        pairs = [
            (a, b)
            for b in range(n)
            for a in range(b)
            if rng.random() < 2.5 / n
        ]
    listing = list(range(n))
    rng.shuffle(listing)
    rng.shuffle(pairs)
    leq = "".join(f" leq p{a} p{b} ;" for a, b in pairs)
    return f"poset K {{ elements {' '.join(f'p{i}' for i in listing)} ;{leq} }}\n"


def _cli_corpus():
    """(args, document) for the pinned CLI transcript: 60 poset entities
    listed out of order, the ``category`` instances of seeds 0..99, and
    weak domination searches on reference pairs."""
    rng = random.Random("cli-corpus")
    for i in range(60):
        doc = _shuffled_poset(rng, rng.randint(6, 20), forest=i % 2 == 0)
        yield ["check", "doc.cat", "--entity", "K"], doc
    for seed in range(100):
        doc = serialize_document(generate_instance("category", seed))
        yield ["check", "doc.cat", "--entity", "K"], doc
    for seed in range(6):
        doc = serialize_document(generate_instance("domination-pair", seed))
        yield ["search", "domination", "doc.cat", "K", "L", "--weak"], doc
    for k, l in (("C3", "V"), ("V", "C3"), ("C3", "C3")):
        yield ["search", "domination", "doc.cat", k, l, "--weak"], BOTH


# Exit 0 and exit 1 counts, and the sha256 of every (exit code, stdout).
CLI_TRANSCRIPT_CODES = (130, 39)
CLI_TRANSCRIPT_SHA256 = (
    "61dc4a97071fe6b91683440c6636a57440b12c97906c07ac832a590de8d8cdd2"
)


def test_cli_transcript_pinned(tmp_path):
    # Every report's bytes and exit code, so a change to how reports are
    # written cannot change what they say.
    path = tmp_path / "doc.cat"
    digest = hashlib.sha256()
    codes = []
    for args, doc in _cli_corpus():
        path.write_text(doc, encoding="utf-8")
        args = [str(path) if a == "doc.cat" else a for a in args]
        res = CliRunner().invoke(main, args)
        assert res.exit_code in (0, 1), (args, doc, res.output)
        digest.update(f"{res.exit_code}\n{res.stdout}".encode())
        codes.append(res.exit_code)
    assert (codes.count(0), codes.count(1)) == CLI_TRANSCRIPT_CODES
    assert digest.hexdigest() == CLI_TRANSCRIPT_SHA256


def test_module_runs_main(monkeypatch, capsys):
    # ``python -m movcat.cli`` runs the command group.  Run again in this
    # process, where the module is already imported, runpy warns.
    monkeypatch.setattr(sys, "argv", ["movcat", "--help"])
    with pytest.warns(RuntimeWarning, match="found in sys.modules"):
        with pytest.raises(SystemExit) as e:
            runpy.run_module("movcat.cli", run_name="__main__")
    assert e.value.code == 0
    assert "Finite-category toolkit" in capsys.readouterr().out
