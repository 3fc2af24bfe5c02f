"""Every function, class, method and import in src/cisim is used somewhere.

A definition counts as used when its name appears as a name, an
attribute or an imported name anywhere in src/cisim or tests/; its own
``def`` or ``class`` line does not count.  A method or property of a
class counts only through attribute access, so a local variable of the
same name does not hide it.  Dunder methods are called by the language
and are exempt.  An imported name counts as used when the importing
module names it outside its import lines; the package's ``__init__.py``
re-exports and ``from __future__`` imports are exempt.

A definition that only tests name must be a reference the tests judge
the program against, listed in ``REFERENCES`` with the reason; any other
helper that only tests call belongs in tests/oracles.py or nowhere.

Every field a class stores, a dataclass field or an attribute of self a
method assigns, is read by attribute name somewhere in src/cisim or
tests/; the few that are kept unread are listed in ``UNREAD_FIELDS``
with the reason.

Every parameter with a default is passed somewhere in src/cisim, by
keyword, by position or through ``*args`` / ``**kwargs``, at a call by
the function's name (a class's name for ``__init__``).  A function that
src/cisim never calls by name is reached through a dispatch table and is
exempt; an option that only tests pass is listed in ``TEST_ONLY_OPTIONS``
with the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cisim").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree) -> tuple[set[str], set[str]]:
    """(bare and imported names, attribute names) used in a module."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names, attributes


def _definitions(node, prefix: str, in_class: bool = False):
    """(qualified name, node, is a class member) of every definition,
    nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            yield f"{prefix}.{child.name}", child, in_class
            yield from _definitions(child, f"{prefix}.{child.name}",
                                    isinstance(child, ast.ClassDef))
        else:
            yield from _definitions(child, prefix, in_class)


# definitions that no src/cisim module names: what the tests compare against
REFERENCES = {
    "cimatrix.ci_entry":
        "per-pair Slater-Condon reference that build_ci_matrix and "
        "criterion 2 are held to",
    "cimatrix.gamma_entry":
        "per-label entry via apply_color; tests rebuild the family from it",
    "cimatrix.assemble_from_gammas":
        "label-sum side of the partition identity (criterion 2)",
    "coloring.color_of":
        "the inverse map from a pair to its color, pinned by COLORING_DIGESTS",
    "cimatrix.enumerate_gammas":
        "every admissible label, listed; criterion 9 checks count_gamma on it",
    "cimatrix.label_key":
        "label order, which the family's integer sort of label keys must give",
    "driver.doubled":
        "sigma_x (x) H, the double cover that criterion 6 and the ledger "
        "test hold the family to",
    "integrals.eri_chemist":
        "per-quartet ERI that IntegralTable's array kernels are held to",
    "integrals.kinetic":
        "per-pair kinetic integral that IntegralTable's array kernels are "
        "held to",
    "integrals.kinetic_gradient_form":
        "closed-form kinetic integral the S0 Riemann sums are judged against",
    "integrals.nuclear_attraction":
        "per-pair, per-nucleus attraction that IntegralTable's array kernels "
        "are held to",
    "integrals.overlap":
        "per-pair overlap that IntegralTable's array kernels are held to",
    "lcu.SegmentPlan.taylor_tail":
        "truncation bound (ln 2)^(K+1)/(K+1)! that K and lambda are held to",
    "lcu.SegmentPlan.ancilla_qubits":
        "selection-register width of the paper's qubit count",
    "lcu.TermFamily.term":
        "one involution C_{gamma, rho, m, s} for the identities of criterion 6",
    "lcu.TermFamily.perms":
        "per-label dense involutions, built when read, for the label oracles",
    "lcu.TermFamily._C":
        "per-label dense counts C_g; criterion 6 holds each label's rounding",
    "lcu.TermFamily._phase":
        "per-label dense phases; criterion 6 holds each label's rounding",
    "lcu.taylor_block":
        "dense U~ = p(H~), which criterion 7 holds to the register walk's "
        "<0|W|0> and evolve's spectral segments are held to",
    "lcu.oaa_block":
        "dense amplified segment, the reference for evolve's spectral "
        "segments and for tests/oracles.dense_taylor_entry",
    "lcu.RegisterSim":
        "register-level walk that checks the dense-block reference "
        "(criterion 7)",
    "lcu.RegisterSim.block_of_w":
        "<0|W|0> on the registers, compared with U~ / lambda",
    "lcu.RegisterSim.oaa_apply":
        "register-level amplified segment, compared with the dense one",
    "orbitals.certify_bounds":
        "re-checks bounds against every orbital's envelope suprema",
    "quadrature.RiemannSum.max_term":
        "largest term, held to the a-priori term bound (criterion 4)",
    "quadrature.RiemannSum.total":
        "exactly summed Riemann sum, compared with the closed-form integral",
    "quadrature.lambda_exact":
        "closed-form screened-Coulomb integral checked by Monte Carlo",
    "quadrature.riemann_S0":
        "one s0 Riemann sum on a given plan, which criterion 4 holds to its "
        "closed form and its term bound",
    "quadrature.riemann_S1":
        "one s1 Riemann sum on a given plan, which criterion 4 holds to its "
        "closed form and its term bound",
    "quadrature.riemann_S2":
        "one s2 Riemann sum on a given plan, which criterion 4 holds to its "
        "closed form and its term bound",
    "selfinverse.SelfInverseTerm.as_dense":
        "dense form of one involution for the identities of criterion 6",
}


def unused_definitions(paths) -> list[str]:
    """Definitions in src/cisim whose name no file in ``paths`` uses."""
    names, attributes = set(), set()
    for path in paths:
        n, a = _references(ast.parse(path.read_text()))
        names |= n
        attributes |= a
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for qualname, node, member in _definitions(tree, path.stem):
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            used = attributes if member else names | attributes
            if not dunder and name not in used:
                unused.append(qualname)
    return unused


def test_no_unused_definitions():
    assert SOURCES and TESTS
    assert unused_definitions(SOURCES + TESTS) == []


def test_test_only_definitions_are_references():
    program = [p for p in SOURCES if p.name != "__init__.py"]
    assert sorted(unused_definitions(program)) == sorted(REFERENCES)


# stored fields that no code reads by attribute name, and why each is kept
UNREAD_FIELDS = {
    "lcu.SegmentPlan.eps":
        "the accuracy a plan was made for; criterion 7 constructs plans with it",
    "coloring.ColoringCensus.n_nodes":
        "coloring-check prints it through asdict; perfbench reads it by name",
    "coloring.ColoringCensus.n_single_colors":
        "coloring-check prints it through asdict",
    "coloring.ColoringCensus.n_double_colors":
        "coloring-check prints it through asdict",
}


def _stored_fields(tree, stem: str):
    """(qualified name, name) of each field a class stores: an annotated
    name in its body, or an attribute of self that one of its methods
    assigns."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                yield f"{stem}.{cls.name}.{node.target.id}", node.target.id
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                yield f"{stem}.{cls.name}.{node.attr}", node.attr


def unread_fields() -> list[str]:
    """Stored fields whose name no attribute read in src/cisim or tests/
    uses."""
    reads = {node.attr for path in SOURCES + TESTS
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    return sorted({qualname for path in SOURCES
                   for qualname, name in _stored_fields(
                       ast.parse(path.read_text()), path.stem)
                   if name not in reads})


def test_every_stored_field_is_read():
    assert unread_fields() == sorted(UNREAD_FIELDS)


def unused_imports() -> list[str]:
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.stem}.{bound}")
    return unused


def test_no_unused_imports():
    assert unused_imports() == []


# parameters with a default that no src/cisim call passes, and why each is
# kept
TEST_ONLY_OPTIONS = {
    "cli.main.argv":
        "tests pass main an argument list; the console script passes none",
}


def _defaulted(fn, skip: int):
    """(position or None, name) of each parameter of ``fn`` with a
    default, its position counted after the first ``skip``; None for a
    keyword-only one."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for at, arg in enumerate(positional[first:], first - skip):
        yield at, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passes(call, at, name: str) -> bool:
    """Whether ``call`` may pass the parameter at position ``at`` named
    ``name``."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return at is not None and (len(call.args) > at or any(
        isinstance(a, ast.Starred) for a in call.args))


def unpassed_options() -> list[str]:
    """Parameters with a default that no call by name in src/cisim passes;
    a method's calls by attribute do not pass self."""
    calls = {}
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(callee, []).append(node)
    unpassed = []
    for stem, tree in trees.items():
        for qualname, fn, member in _definitions(tree, stem):
            if isinstance(fn, ast.ClassDef):
                continue
            callee = qualname.split(".")[-2] if fn.name == "__init__" \
                else fn.name
            sites = calls.get(callee, [])
            for at, arg in _defaulted(fn, int(member)):
                if sites and not any(_passes(c, at, arg) for c in sites):
                    unpassed.append(f"{qualname}.{arg}")
    return sorted(unpassed)


def test_every_option_is_passed_by_the_program():
    assert unpassed_options() == sorted(TEST_ONLY_OPTIONS)
