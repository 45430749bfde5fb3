"""Command-line surface.

Exit codes: 0 when the property holds or the campaign is clean, 1 when the
property fails or a counterexample is found, 2 on input or validation
errors.
"""

from __future__ import annotations

import sys
from typing import NoReturn

import click

from .builders import (
    coslice_category,
    elements_category,
    product_category,
)
from .campaign import THEOREMS, evaluate_instance, run_campaign
from .core import FiniteCategory
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


def _echo(msg: str, err: bool = False) -> None:
    """``click.echo`` to a stream fetched per call.  click caches its default
    streams in a weak map whose values are their own keys, so without an
    explicit ``file`` every stream it writes to (each in-process CliRunner
    invocation's output among them) stays alive for the whole process."""
    click.echo(msg, file=click.get_text_stream("stderr" if err else "stdout"))


def _fail_input(msg: str) -> NoReturn:
    _echo(f"error: {msg}", err=True)
    sys.exit(2)


def _load(path: str) -> Document:
    """The document in the UTF-8 file ``path``.  One leading byte-order mark
    is dropped, and CRLF and a lone CR end a line as LF does.  The bytes are
    decoded whole, so a byte that is not UTF-8 is named by its offset in the
    file, the mark included."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except FileNotFoundError:
        _fail_input(f"no such file: {path}")
    except OSError as exc:
        _fail_input(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _fail_input(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    try:
        return parse_document(text)
    except DslSyntaxError as exc:
        _fail_input(str(exc))


class _Main(click.Group):
    """The command group; a MovcatError from any command exits 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except MovcatError as exc:
            _fail_input(f"{type(exc).__name__}: {exc}")


@click.group(cls=_Main)
def main() -> None:
    """Finite-category toolkit: movability checks, domination search,
    category builders, system conditions, and law campaigns."""


@main.command()
@click.argument("file", type=click.Path())
@click.option("--entity", required=True, help="Category entity to check.")
@click.option("--via", help="Functor entity; decide movability relative to it.")
def check(file: str, entity: str, via: str | None) -> None:
    """Decide strong movability of a category entity, or its movability
    relative to the functor named by --via."""
    doc = _load(file)
    k = doc.category_of(entity)
    if via is None:
        prop, res = "strong-movable", check_strongly_movable(k)
    else:
        phi = doc.get(via, FunctorEntity).functor
        if phi.source != k:
            _fail_input(f"--via {via} is not a functor out of {entity}")
        prop, res = "movable", check_movable_wrt(k, phi.target, phi)
    if isinstance(res, MovabilityWitness):
        _echo(f"{entity}: {prop} (witness found)")
        for x in range(k.n_objects):
            _echo(
                f"  {k.object_names[x]}: mover {k.object_names[res.movers[x]]}"
                f" via {k.mor_names[res.mover_mors[x]]}"
            )
        sys.exit(0)
    _echo(f"{entity}: not {prop}")
    _echo(f"  defeated at object {k.object_names[res.obj]}")
    _echo(serialize_document(doc))
    sys.exit(1)


@main.group()
def search() -> None:
    """Exhaustive searches over functor pairs."""


@search.command()
@click.argument("file", type=click.Path())
@click.argument("k_name")
@click.argument("l_name")
@click.option("--weak", is_flag=True, help="Allow G.F naturally transformed to 1.")
@click.option(
    "--budget", type=click.IntRange(min=0), default=DEFAULT_BUDGET, show_default=True
)
def domination(file: str, k_name: str, l_name: str, weak: bool, budget: int) -> None:
    """Search for a (weak) functorial domination of K by L."""
    doc = _load(file)
    k = doc.category_of(k_name)
    l = doc.category_of(l_name)
    if weak:
        res = find_weak_domination(k, l, budget)
    else:
        res = find_functorial_domination(k, l, budget)
    if res.found is None:
        suffix = " (budget exhausted)" if res.truncated else " (exhaustive)"
        _echo(f"none{suffix}")
        sys.exit(1)
    if weak:
        f, g, phi = res.found
    else:
        f, g = res.found
        phi = None
    _echo("found")
    for label, fn in (("F", f), ("G", g)):
        names, images = fn.source.object_names, fn.target.object_names
        pairs = (f"{names[a]}=>{images[b]}" for a, b in enumerate(fn.obj_map))
        _echo(f"  {label} objects: " + " ".join(pairs))
    if phi is not None:
        comps = enumerate(phi.components)
        pairs = (f"{k.object_names[a]}:{k.mor_names[c]}" for a, c in comps)
        _echo("  phi: " + " ".join(pairs))
    sys.exit(0)


@main.group()
def build() -> None:
    """Construct derived categories and write them as documents."""


def _write_category(name: str, category: FiniteCategory, out: str) -> None:
    """Write ``category`` as a document of one entity; a category with no
    objects, which the reader's `objects` clause cannot list, exits 2."""
    if not category.n_objects:
        _fail_input(f"{name} has no objects; a document cannot list an empty category")
    doc = Document([make_category_entity(name, category)])
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(serialize_document(doc))
    except OSError as exc:
        _fail_input(f"cannot write {out}: {exc.strerror or exc}")
    _echo(f"wrote {out}")


@build.command()
@click.argument("file", type=click.Path())
@click.argument("a_name")
@click.argument("b_name")
@click.option("-o", "--output", required=True, type=click.Path())
def product(file: str, a_name: str, b_name: str, output: str) -> None:
    """Product of two category entities."""
    doc = _load(file)
    a = doc.category_of(a_name)
    b = doc.category_of(b_name)
    prod = product_category([a, b]).category
    _write_category(f"product_{a_name}_{b_name}", prod, output)


@build.command()
@click.argument("file", type=click.Path())
@click.argument("c_name")
@click.argument("obj_name")
@click.option("-o", "--output", required=True, type=click.Path())
def coslice(file: str, c_name: str, obj_name: str, output: str) -> None:
    """Coslice of a category entity under one of its objects."""
    doc = _load(file)
    c = doc.category_of(c_name)
    if obj_name not in c.object_names:
        _fail_input(f"no object {obj_name!r} in {c_name}")
    x = c.object_names.index(obj_name)
    cos = coslice_category(c, x).category
    _write_category(f"coslice_{c_name}_{obj_name}", cos, output)


@build.command()
@click.argument("file", type=click.Path())
@click.argument("h_name")
@click.option("-o", "--output", required=True, type=click.Path())
def elements(file: str, h_name: str, output: str) -> None:
    """Category of elements of a copresheaf entity."""
    doc = _load(file)
    h = doc.get(h_name, CopresheafEntity).copresheaf
    _write_category(f"elements_{h_name}", elements_category(h).category, output)


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
    ent = doc.get(entity, SystemEntity)
    if not any([sm1, sm2, associated, star]):
        sm1 = True
        sm2 = associated = star = ent.cone is not None
    if (sm2 or associated or star) and ent.cone is None:
        _fail_input(f"{entity} carries no cone")
    failed = False
    if sm1:
        ok = isinstance(check_sm1(ent.system), SM1Witness)
        _echo(f"sm1: {'pass' if ok else 'fail'}")
        failed |= not ok
    if sm2:
        ok = isinstance(check_sm2(ent.system, ent.cone), SM2Witness)
        _echo(f"sm2: {'pass' if ok else 'fail'}")
        failed |= not ok
    if associated:
        rep = check_associated(ent.system, ent.cone)
        _echo(
            f"associated: {'pass' if rep.associated else 'fail'}"
            f" (1:{rep.cond1} 2:{rep.cond2} 3:{rep.cond3})"
        )
        failed |= not rep.associated
    if star:
        ok = isinstance(check_star(ent.cone.copresheaf), StarWitness)
        _echo(f"star: {'pass' if ok else 'fail'}")
        failed |= not ok
    if failed:
        _echo(serialize_document(doc))
    sys.exit(1 if failed else 0)


@main.command()
@click.argument("theorem", type=click.Choice(THEOREMS))
@click.option("--seeds", default="0..100", show_default=True, help="Half-open A..B.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
@click.option("--replay", type=click.Path(), help="Re-evaluate one saved document.")
def campaign(
    theorem: str,
    seeds: str,
    as_json: bool,
    replay: str,
) -> None:
    """Run a law over a seed range, or replay a saved counterexample."""
    if replay:
        doc = _load(replay)
        ok, detail = evaluate_instance(theorem, doc)
        _echo(f"{'pass' if ok else 'fail'}: {detail}")
        sys.exit(0 if ok else 1)
    try:
        lo, _, hi = seeds.partition("..")
        seed_range = range(int(lo), int(hi))
    except ValueError:
        seed_range = range(0)
    if not seed_range:
        _fail_input(f"bad --seeds {seeds!r}; expected A..B with A < B")
    report = run_campaign(theorem, seed_range, GenParams())
    if as_json:
        _echo(report.to_json())
    else:
        _echo(
            f"{theorem}: {report.passes}/{report.instances} pass"
            f" ({report.wall_time:.2f}s)"
        )
        for f in report.failures:
            _echo(f"seed {f['seed']}: {f['detail']}")
            _echo(f["document"])
    sys.exit(0 if report.clean else 1)


if __name__ == "__main__":
    main()
