"""The package namespace, the README's quick start and the callers of each name."""

import argparse
import ast
import importlib
import importlib.util
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import latquot
from latquot.cli import build_parser
from latquot.construct import centred_cubic, fixture_inventory, named
from latquot.core import GramLattice
from latquot.enumeration import vectors_up_to
from latquot.quality import qb
from latquot.watson import maximal_index

ROOT = Path(__file__).resolve().parents[1]


def test_importing_the_compute_modules_leaves_the_rest_unimported():
    # ``import latquot`` loads no submodule, and the modules behind the
    # searches import neither the code classification, the closed form
    # bounds nor the verification suites; nor does building the search
    # corpus of any rank, which reads its code lifts from the fixtures.
    script = (
        "import sys\n"
        "import latquot, latquot.quality, latquot.watson, latquot.enumeration\n"
        "import latquot.construct, latquot.sampling\n"
        "for n in range(1, 13): latquot.construct.search_corpus(n)\n"
        "print(sorted(m for m in ('latquot.bounds', 'latquot.verify', 'latquot.codes')"
        " if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.stdout.strip() == "[]"


def test_the_lazy_namespace_serves_every_public_name():
    namespace = {}
    exec("from latquot import *", namespace)
    assert all(namespace[name] is getattr(latquot, name) for name in latquot.__all__)
    submodules = {info.name for info in pkgutil.iter_modules(latquot.__path__)}
    for name in submodules:
        assert getattr(latquot, name) is importlib.import_module(f"latquot.{name}")
    assert set(latquot.__all__) | submodules <= set(dir(latquot))
    with pytest.raises(AttributeError, match="no_such_name"):
        latquot.no_such_name


def test_the_readme_quick_start_runs_and_states_its_values():
    # Each expression line of the block states its value in a comment.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        code = code.strip()
        if not code:
            continue
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        expected = eval(comment.split(":")[0], {"Fraction": Fraction})
        assert eval(expression, namespace) == expected, code
        stated.append(expected)
    assert stated == [Fraction(3, 2), True, Fraction(9, 4), 4, (2, 2)]


def _tracer():
    """perfbench/tracer.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_span_keeps_a_binding():
    # The traced benchmark run wraps the names perfbench/tracer.py lists;
    # a span none of whose names resolves reports null metrics.
    tracer = _tracer()
    bound: dict[str, list] = {}
    for module, attr, span in tracer.ENTRY_POINTS:
        fn = getattr(importlib.import_module(module), attr, None)
        bound.setdefault(span, []).extend([f"{module}.{attr}"] if callable(fn) else [])
    assert [span for span, names in bound.items() if not names] == []


def test_the_tracer_counts_the_listings_it_wraps():
    # The traced run counts each listing and its vectors through the
    # length and the (norm, vector) pairs of what ``_listing`` returns:
    # the liftc12 listing to norm 3, the minima ball of centred_cubic(9),
    # which settles its basis search, and the 120 pairs of roots of E8.
    def fresh(L):
        return GramLattice(L.n, L.gram, L.label)

    tracer = _tracer().Tracer()
    tracer.install()
    try:
        vectors_up_to(fresh(fixture_inventory()["liftc12"]), 3)
        qb(fresh(centred_cubic(9)))
        maximal_index(fresh(named("E8").lattice))
    finally:
        tracer.uninstall()
    summary = tracer.summary(1.0)
    assert summary["enumeration.listing.calls"] == 3
    assert summary["enumeration.vectors_listed"] == 9472 + 337 + 120


# Names of src/latquot that nothing in src/ or perfbench/ calls, each with
# the reason it stays: top-level functions and classes by name, public
# methods and properties as ``Class.name``.
UNCALLED = {
    "hermite_Hb": "README documents it as one of the paper's quantities",
    "minkowski_M": "README documents it as one of the paper's quantities",
    "fixture_inventory": "README documents it as one of the paper's quantities",
    "tuvw_bounds": "README documents it as one of the paper's quantities",
    "context_from": "one of the paper's inequalities, for a table of Q_b beside L/F",
    "step_bound": "one of the paper's inequalities, for a table of Q_b beside L/F",
    "hermite_Hb_bound": "one of the paper's inequalities, for a table of Q_b beside L/F",
    "det_rational": "perfbench's tracer wraps it through a noqa import",
    "is_primitive": "perfbench's tracer wraps it through a noqa import",
    "norm": "an accessor of the lattice model; moving it would remove no code",
    "inner": "an accessor of the lattice model; moving it would remove no code",
    "CosetVector.counts": "the paper's shell sizes m_i, read from .shells, its S_i",
}


SRC, BENCH = ROOT / "src" / "latquot", ROOT / "perfbench"


def _sources():
    """The syntax tree of each module of src/latquot and perfbench/, by path."""
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))}


def _is_public_method(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")


def _definitions(tree, members):
    """Pairs (keys, refs) over a module's top-level statements.

    ``refs`` are the names a statement's code refers to; they count only
    while every one of ``keys`` has a caller.  Each public method of a
    class is a pair of its own, keyed by its class and ``Class.name``.
    ``members`` maps a member name to the ``Class.name`` keys of the
    source classes that define it.
    """
    def refs(nodes, cls=None):
        out = set()
        for n in (n for node in nodes for n in ast.walk(node)):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
                if cls and isinstance(n.value, ast.Name) and n.value.id in ("self", "cls"):
                    out.add(f"{cls}.{n.attr}")
                else:
                    out |= members.get(n.attr, set())
        return out - {cls}

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield (node.name,), refs([node]) - {node.name}
        elif isinstance(node, ast.ClassDef):
            public = [item for item in node.body if _is_public_method(item)]
            for item in public:
                key = f"{node.name}.{item.name}"
                yield (node.name, key), refs([item], node.name) - {key}
            rest = node.decorator_list + node.bases + node.keywords
            yield (node.name,), refs(rest + [i for i in node.body if i not in public], node.name)
        else:
            yield (), refs([node])


def test_every_name_in_src_has_a_caller_outside_the_tests():
    # A top-level function or class of src/latquot, and a public method
    # or property of one of its classes, must be referred to in src/ or
    # perfbench/ other than by its own definition, its imports and
    # ``_EXPORTS``, whose entries are strings.  A member is referred to
    # as ``x.name``, except that inside a class ``self.name`` and
    # ``cls.name`` refer to that class's own members only.  A reference
    # from a definition that has no caller itself does not count, unless
    # it is one of UNCALLED; nor does one from a method of such a class.
    trees = _sources()
    defined = set()
    members: dict[str, set[str]] = {}
    for path, tree in trees.items():
        for node in tree.body if path.parent == SRC else ():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("__"):
                    defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                for item in filter(_is_public_method, node.body):
                    members.setdefault(item.name, set()).add(f"{node.name}.{item.name}")
    defined |= set().union(*members.values())
    owners = [owner for tree in trees.values() for owner in _definitions(tree, members)]
    uncalled: set[str] = set()
    while True:
        dead = uncalled - set(UNCALLED)
        used = set().union(*(refs for keys, refs in owners if dead.isdisjoint(keys)))
        if defined - used == uncalled:
            break
        uncalled = defined - used
    assert sorted(uncalled) == sorted(UNCALLED)


def test_every_import_in_src_is_used():
    # Each name a module of src/latquot imports is read somewhere in that
    # module.  Only an import line marked ``# noqa: F401`` is exempt: it
    # keeps a name bound for perfbench's tracer to wrap.
    unused, exempt = [], set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" in lines[node.lineno - 1]:
                    exempt.add(name)
                elif name not in read:
                    unused.append(f"{path.name}: {name}")
    assert unused == []
    assert exempt == {"hnf_rows", "is_primitive", "det_rational", "matmul"}


# Default-valued parameters of src/latquot that no call in src/ or
# perfbench/ passes, each with the reason it stays, as ``function.name``.
UNSET = {
    "vectors_up_to.budget": "every public call takes one node budget; README documents it",
    "minkowski_M.budget": "every public call takes one node budget; README documents it",
    "hermite_Hb.budget": "every public call takes one node budget; README documents it",
}


def _settings(tree):
    """``(function, parameter, position)`` for each default-valued parameter in a module.

    ``position`` is the number of arguments a call passes before the
    parameter, so a method's ``self`` or ``cls`` does not count; a
    keyword-only parameter has no position.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, functions)
               and not any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)}
    for node in ast.walk(tree):
        if isinstance(node, functions):
            args = node.args
            positional = args.posonlyargs + args.args
            shift = id(node) in methods
            for i in range(len(positional) - len(args.defaults), len(positional)):
                yield node.name, positional[i].arg, i - shift
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def test_every_setting_in_src_is_set_by_a_caller_outside_the_tests():
    # A default-valued parameter of a function in src/latquot must be
    # passed, by position or by keyword, by some call in src/ or
    # perfbench/; a setting that only the tests turn is a constant.
    # Calls are matched by the function's name, as in the name guard,
    # and a call's ``*args`` or ``**kwargs`` passes every position or
    # every keyword.
    trees = _sources()
    calls: dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                keywords = {keyword.arg for keyword in node.keywords}
                count = math.inf if starred else len(node.args)
                calls.setdefault(name, []).append((count, keywords))
    unset = {
        f"{function}.{name}"
        for path, tree in trees.items() if path.parent == SRC
        for function, name, position in _settings(tree)
        if not any((position is not None and position < count) or {name, None} & keywords
                   for count, keywords in calls.get(function, ()))
    }
    assert sorted(unset - set(UNSET)) == []
    assert sorted(set(UNSET) - unset) == []


def test_no_module_in_src_reads_the_environment():
    # A result depends on its arguments alone: a setting comes in as a
    # parameter or a command line flag, never from the process environment.
    readers = sorted({
        path.name for path, tree in _sources().items() if path.parent == SRC
        for node in ast.walk(tree)
        if {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
        & {"environ", "getenv"}
    })
    assert readers == []


def test_only_reduction_and_enumeration_name_the_level_weights():
    # ``_weights`` scales the Fincke-Pohst levels to one common weight;
    # reduction reads its diagonal off them and the kernel walks its tree
    # in them.  Every other module counts a norm as the integer
    # v (scale G) v^T of the lattice's integral form.
    names = sorted(
        path.stem for path, tree in _sources().items() if path.parent == SRC
        if any("_weights" in {getattr(node, "id", None), getattr(node, "attr", None),
                              getattr(node, "name", None)} for node in ast.walk(tree))
    )
    assert names == ["enumeration", "reduction"]


def _command_lines():
    """Lines of CI's workflow and of README's command line block, by the subcommand each runs."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    lines: dict[str, list[str]] = {}
    for line in (block + workflow).splitlines():
        command = re.search(r"\blatquot(?:\.cli)? (\w+)", line)
        if command:
            lines.setdefault(command.group(1), []).append(line)
    return lines


def test_every_command_line_option_is_used_outside_the_tests():
    # An option a subcommand defines itself must appear on a line of
    # CI's workflow or of README's command line block that runs that
    # subcommand; an option every subcommand shares from one parent
    # parser counts once, on a line that runs any of them.  An option
    # only the tests pass is a constant.
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    shared = set.intersection(*({id(a) for a in sub._actions} for sub in commands.values()))
    lines = _command_lines()
    unused = set()
    for name, sub in commands.items():
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            runs = commands if id(action) in shared else [name]
            for option in action.option_strings:
                pattern = re.compile(rf"(?<!\S){re.escape(option)}(?![\w-])")
                if not any(pattern.search(line) for run in runs for line in lines.get(run, ())):
                    unused.add(option if id(action) in shared else f"{name} {option}")
    assert sorted(unused) == []
