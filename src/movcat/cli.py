"""Command-line surface.

Exit codes: 0 when the property holds or the campaign is clean, 1 when the
property fails or a counterexample is found, 2 on input or validation
errors.
"""

from __future__ import annotations

import sys

import click

from .builders import (
    coslice_category,
    elements_category,
    product_category,
)
from .campaign import THEOREMS, evaluate_instance, run_campaign
from .dsl import (
    CopresheafEntity,
    Document,
    FunctorEntity,
    SystemEntity,
    make_category_entity,
    parse_document,
    serialize_document,
)
from .errors import DslSyntaxError, MovcatError
from .generators import GenParams
from .movability import MovabilityWitness, check_movable_wrt, check_strongly_movable
from .search import DEFAULT_BUDGET, find_functorial_domination, find_weak_domination
from .systems import (
    SM1Witness,
    SM2Witness,
    StarWitness,
    check_associated,
    check_sm1,
    check_sm2,
    check_star,
)


def _fail_input(msg: str) -> None:
    click.echo(f"error: {msg}", err=True)
    sys.exit(2)


def _load(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except FileNotFoundError:
        _fail_input(f"no such file: {path}")
    except DslSyntaxError as exc:
        _fail_input(str(exc))
    except MovcatError as exc:
        _fail_input(f"{type(exc).__name__}: {exc}")


@click.group()
def main() -> None:
    """Finite-category toolkit: movability checks, domination search,
    category builders, system conditions, and law campaigns."""


@main.command()
@click.argument("file", type=click.Path())
@click.option("--entity", required=True, help="Category entity to check.")
@click.option(
    "--property",
    "prop",
    type=click.Choice(["strong-movable", "movable"]),
    default="strong-movable",
    show_default=True,
)
@click.option("--via", help="Functor entity for relative movability.")
def check(file: str, entity: str, prop: str, via: str) -> None:
    """Decide (strong or relative) movability of a category entity."""
    doc = _load(file)
    try:
        k = doc.category_of(entity)
        if prop == "movable":
            if not via:
                _fail_input("--property movable requires --via FUNCTOR")
            fe = doc[via]
            if not isinstance(fe, FunctorEntity) or fe.functor.source != k:
                _fail_input(f"--via {via} is not a functor out of {entity}")
            res = check_movable_wrt(k, fe.functor.target, fe.functor)
        else:
            res = check_strongly_movable(k)
    except MovcatError as exc:
        _fail_input(f"{type(exc).__name__}: {exc}")
    if isinstance(res, MovabilityWitness):
        click.echo(f"{entity}: {prop} (witness found)")
        for x in range(k.n_objects):
            click.echo(
                f"  {k.object_names[x]}: mover {k.object_names[res.movers[x]]}"
                f" via {k.mor_names[res.mover_mors[x]]}"
            )
        sys.exit(0)
    click.echo(f"{entity}: not {prop}")
    click.echo(f"  defeated at object {k.object_names[res.obj]}")
    click.echo(serialize_document(doc))
    sys.exit(1)


@main.group()
def search() -> None:
    """Exhaustive searches over functor pairs."""


@search.command()
@click.argument("file", type=click.Path())
@click.argument("k_name")
@click.argument("l_name")
@click.option("--weak", is_flag=True, help="Allow G.F naturally transformed to 1.")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
def domination(file: str, k_name: str, l_name: str, weak: bool, budget: int) -> None:
    """Search for a (weak) functorial domination of K by L."""
    doc = _load(file)
    try:
        k = doc.category_of(k_name)
        l = doc.category_of(l_name)
        if weak:
            res = find_weak_domination(k, l, budget)
        else:
            res = find_functorial_domination(k, l, budget)
    except MovcatError as exc:
        _fail_input(f"{type(exc).__name__}: {exc}")
    if res.found is None:
        suffix = " (budget exhausted)" if res.truncated else " (exhaustive)"
        click.echo(f"none{suffix}")
        sys.exit(1)
    if weak:
        f, g, phi = res.found
    else:
        f, g = res.found
        phi = None
    click.echo("found")
    click.echo(
        "  F objects: "
        + " ".join(
            f"{k.object_names[a]}=>{l.object_names[f.obj_map[a]]}"
            for a in range(k.n_objects)
        )
    )
    click.echo(
        "  G objects: "
        + " ".join(
            f"{l.object_names[a]}=>{k.object_names[g.obj_map[a]]}"
            for a in range(l.n_objects)
        )
    )
    if phi is not None:
        click.echo(
            "  phi: "
            + " ".join(
                f"{k.object_names[a]}:{k.mor_names[phi.components[a]]}"
                for a in range(k.n_objects)
            )
        )
    sys.exit(0)


@main.group()
def build() -> None:
    """Construct derived categories and write them as documents."""


def _write_doc(doc: Document, out: str) -> None:
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(serialize_document(doc))
    click.echo(f"wrote {out}")


@build.command()
@click.argument("file", type=click.Path())
@click.argument("a_name")
@click.argument("b_name")
@click.option("-o", "--output", required=True, type=click.Path())
def product(file: str, a_name: str, b_name: str, output: str) -> None:
    """Product of two category entities."""
    doc = _load(file)
    try:
        a = doc.category_of(a_name)
        b = doc.category_of(b_name)
        prod = product_category([a, b]).category
    except MovcatError as exc:
        _fail_input(f"{type(exc).__name__}: {exc}")
    out = Document()
    out.add(make_category_entity(f"product_{a_name}_{b_name}", prod))
    _write_doc(out, output)


@build.command()
@click.argument("file", type=click.Path())
@click.argument("c_name")
@click.argument("obj_name")
@click.option("-o", "--output", required=True, type=click.Path())
def coslice(file: str, c_name: str, obj_name: str, output: str) -> None:
    """Coslice of a category entity under one of its objects."""
    doc = _load(file)
    try:
        c = doc.category_of(c_name)
        if obj_name not in c.object_names:
            _fail_input(f"no object {obj_name!r} in {c_name}")
        x = c.object_names.index(obj_name)
        cos = coslice_category(c, x).category
    except MovcatError as exc:
        _fail_input(f"{type(exc).__name__}: {exc}")
    out = Document()
    out.add(make_category_entity(f"coslice_{c_name}_{obj_name}", cos))
    _write_doc(out, output)


@build.command()
@click.argument("file", type=click.Path())
@click.argument("h_name")
@click.option("-o", "--output", required=True, type=click.Path())
def elements(file: str, h_name: str, output: str) -> None:
    """Category of elements of a copresheaf entity."""
    doc = _load(file)
    try:
        he = doc[h_name]
        if not isinstance(he, CopresheafEntity):
            _fail_input(f"{h_name} is not a copresheaf")
        cat = elements_category(he.copresheaf).category
    except MovcatError as exc:
        _fail_input(f"{type(exc).__name__}: {exc}")
    out = Document()
    out.add(make_category_entity(f"elements_{h_name}", cat))
    _write_doc(out, output)


@main.group()
def system() -> None:
    """Inverse-system condition checks."""


@system.command(name="check")
@click.argument("file", type=click.Path())
@click.option("--entity", required=True, help="System entity to check.")
@click.option("--sm1", is_flag=True)
@click.option("--sm2", is_flag=True)
@click.option("--associated", is_flag=True)
@click.option("--star", is_flag=True)
def system_check(
    file: str, entity: str, sm1: bool, sm2: bool, associated: bool, star: bool
) -> None:
    """Run the selected condition checks (all applicable by default)."""
    doc = _load(file)
    ent = doc[entity] if entity in doc else _fail_input(f"no entity {entity!r}")
    if not isinstance(ent, SystemEntity):
        _fail_input(f"{entity} is not a system")
    if not any([sm1, sm2, associated, star]):
        sm1 = True
        sm2 = associated = star = ent.cone is not None
    failed = False
    try:
        if sm1:
            ok = isinstance(check_sm1(ent.system), SM1Witness)
            click.echo(f"sm1: {'pass' if ok else 'fail'}")
            failed |= not ok
        if sm2 or associated or star:
            if ent.cone is None:
                _fail_input(f"{entity} carries no cone")
        if sm2:
            ok = isinstance(check_sm2(ent.system, ent.cone), SM2Witness)
            click.echo(f"sm2: {'pass' if ok else 'fail'}")
            failed |= not ok
        if associated:
            rep = check_associated(ent.system, ent.cone)
            click.echo(
                f"associated: {'pass' if rep.associated else 'fail'}"
                f" (1:{rep.cond1} 2:{rep.cond2} 3:{rep.cond3})"
            )
            failed |= not rep.associated
        if star:
            ok = isinstance(check_star(ent.cone.copresheaf), StarWitness)
            click.echo(f"star: {'pass' if ok else 'fail'}")
            failed |= not ok
    except MovcatError as exc:
        _fail_input(f"{type(exc).__name__}: {exc}")
    if failed:
        click.echo(serialize_document(doc))
    sys.exit(1 if failed else 0)


@main.command()
@click.argument("theorem", type=click.Choice(THEOREMS))
@click.option("--seeds", default="0..100", show_default=True, help="Half-open A..B.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
@click.option("--negate", is_flag=True, hidden=True, help="Self-test: invert verdicts.")
@click.option("--replay", type=click.Path(), help="Re-evaluate one saved document.")
def campaign(
    theorem: str,
    seeds: str,
    as_json: bool,
    negate: bool,
    replay: str,
) -> None:
    """Run a law over a seed range, or replay a saved counterexample."""
    if replay:
        doc = _load(replay)
        try:
            ok, detail = evaluate_instance(theorem, doc)
        except MovcatError as exc:
            _fail_input(f"{type(exc).__name__}: {exc}")
        click.echo(f"{'pass' if ok else 'fail'}: {detail}")
        sys.exit(0 if ok else 1)
    try:
        lo, _, hi = seeds.partition("..")
        seed_range = range(int(lo), int(hi))
    except ValueError:
        _fail_input(f"bad --seeds {seeds!r}; expected A..B")
    try:
        report = run_campaign(theorem, seed_range, GenParams(), negate=negate)
    except MovcatError as exc:
        _fail_input(f"{type(exc).__name__}: {exc}")
    if as_json:
        click.echo(report.to_json())
    else:
        click.echo(
            f"{theorem}: {report.passes}/{report.instances} pass"
            f" ({report.wall_time:.2f}s)"
        )
        for f in report.failures:
            click.echo(f"seed {f['seed']}: {f['detail']}")
            click.echo(f["document"])
    sys.exit(0 if report.clean else 1)


if __name__ == "__main__":
    main()
