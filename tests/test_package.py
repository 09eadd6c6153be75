"""Tests of the package surface: the names public as ``trsw.X``, the
module-level names that something outside the tests reaches, and the
module attributes that the benchmark's tracer (``perfbench/spans.py``)
rebinds to time each layer."""

import ast
import dataclasses
import glob
import importlib.util
import os
import re

import trsw
import trsw.cli
from trsw.model import Numerics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _library_example():
    """The fenced Python block under the README's ``## Library use``."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        library = fh.read().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def _reached_as_trsw_x():
    """Every X written as ``trsw.X`` in the README's library example, the
    benchmark's modules and the acceptance gate, less the submodules."""
    texts = [_library_example()]
    for path in (sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
                 + [os.path.join(ROOT, "tests", "test_acceptance.py")]):
        with open(path) as fh:
            texts.append(fh.read())
    names = set()
    for text in texts:
        names.update(re.findall(r"\btrsw\.([A-Za-z_]\w*)", text))
    return {name for name in names if not name.startswith("__")
            and importlib.util.find_spec(f"trsw.{name}") is None}


class TestPublicApi:
    def test_every_public_name_resolves(self):
        assert len(set(trsw.__all__)) == len(trsw.__all__)
        for name in trsw.__all__:
            assert hasattr(trsw, name), name

    def test_names_reached_as_trsw_x_are_public(self):
        reached = _reached_as_trsw_x()
        assert {"make_scenario", "run_simulation", "Scenario"} <= reached
        assert sorted(reached - set(trsw.__all__)) == []


class TestLibraryExample:
    def test_readme_example_runs(self):
        namespace = {}
        exec(compile(_library_example(), "README.md", "exec"), namespace)
        assert not namespace["result"].failed
        assert namespace["tend"].shape == (4, 400)


class TestSettings:
    def test_every_numerics_field_is_a_cli_setting(self):
        # a scheme setting that no caller can set is a constant
        flags = trsw.cli._build_parser()._option_string_actions
        for f in dataclasses.fields(Numerics):
            assert f.name in trsw.cli._CONFIG_KEYS, f.name
            assert "--" + f.name.replace("_", "-") in flags, f.name

    def test_config_keys_are_the_flags_less_the_flag_only_ones(self):
        dests = {action.dest for action in trsw.cli._build_parser()._actions}
        flag_only = {"help", "config", "compare_with", "convergence"}
        assert sorted(trsw.cli._CONFIG_KEYS) == sorted(dests - flag_only)


def _parsed(pattern):
    trees = []
    for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
        with open(path) as fh:
            trees.append(ast.parse(fh.read(), path))
    return trees


def _bound(function) -> set:
    """The names a function or lambda binds: its parameters, and in its
    own body (not in the functions nested in it) the targets of its
    assignments, loops, withs and comprehensions, its imports, handlers
    and nested definitions, less those it declares global or nonlocal."""
    args = function.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
             + [args.vararg, args.kwarg] if a is not None}
    declared = set()
    body = function.body
    stack = list(body) if isinstance(body, list) else [body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        stack.extend(ast.iter_child_nodes(node))
    return bound - declared


def _used_names(tree) -> set:
    """The names that ``tree`` uses: every imported name, every attribute,
    and every load of a name that no enclosing function binds. A local or
    parameter that shares a module-level function's name is then no use
    of that function."""
    used = set()

    def visit(node, scopes):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if not any(node.id in scope for scope in scopes):
                used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            scopes = scopes + (_bound(node),)
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(tree, ())
    return used


def _unreached(package, users, public=(), readme=""):
    """The module-level functions and classes of the trees ``package``
    that none of the trees ``users`` uses (see _used_names), ``public``
    does not hold and ``readme`` does not write as
    ``trsw.<module>.<name>``."""
    defined = {node.name for tree in package for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))}
    used = set(public)
    for tree in users:
        used |= _used_names(tree)
    used.update(re.findall(r"\btrsw\.\w+\.(\w+)", readme))
    return sorted(defined - used)


def _unreached_definitions():
    """Module-level functions and classes of src/trsw that no code outside
    the tests names: none of the package, the benchmark or the tools uses
    them, trsw.__all__ does not hold them, and the README does not write
    them as ``trsw.<module>.<name>``."""
    package = _parsed("src/trsw/*.py")
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    return _unreached(package, package + _parsed("perfbench/*.py")
                      + _parsed("tools/*.py"), trsw.__all__, readme)


class TestReach:
    def test_every_module_level_definition_is_reached(self):
        # a function or class that only the tests call is code the
        # library, the CLI and the benchmark do not need
        assert _unreached_definitions() == []

    def test_a_local_of_the_same_name_is_no_use(self):
        # every "use" of helper is a parameter or local named like it, and
        # a walk over all ast.Name nodes would count them; imported names,
        # attributes and free loads still count, in closures too
        defining = ast.parse(
            "def helper(x):\n    return x\n"
            "def imported():\n    pass\n"
            "def attribute():\n    pass\n"
            "def free():\n    pass\n"
            "def closed():\n    pass\n")
        using = ast.parse(
            "from defining import imported\n"
            "def by_parameter(helper):\n    return helper(1)\n"
            "def by_local():\n    helper = len\n    return helper([])\n"
            "def by_loop():\n    return [helper for helper in ()]\n"
            "def outer():\n    closed = 1\n"
            "    def inner(helper=0):\n        return closed + helper\n"
            "    return inner\n"
            "def uses():\n    return module.attribute, free(), closed()\n")
        names = {n.id for n in ast.walk(using) if isinstance(n, ast.Name)}
        assert "helper" in names
        assert _unreached([defining], [using]) == ["helper"]


def _buffer_defaults(tree):
    """(function, argument) for every function in ``tree`` that gives one
    of its buffer arguments ``ws``, ``out``, ``work``, ``u1`` or ``u2`` a
    default."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        found += [(node.name, a.arg) for a in defaulted
                  if a.arg in ("ws", "out", "work", "u1", "u2")]
    return found


class TestStageBuffers:
    def test_stage_kernels_take_their_buffers(self):
        # a kernel of a stage writes into the run's workspace only; a
        # default that allocates fresh buffers would be a second path
        # that only tests take. The public depth solve keeps its
        # broadcast entry.
        found = []
        for name in ("stepper", "flux", "reconstruction"):
            (tree,) = _parsed(f"src/trsw/{name}.py")
            found += _buffer_defaults(tree)
        (tree,) = _parsed("src/trsw/diagnostics.py")
        found += [hit for hit in _buffer_defaults(tree)
                  if hit[0] in ("make_record", "gradient_max")]
        assert found == [("depth_from_equilibrium", "work")]


class TestSpanTargets:
    def test_every_target_records_a_call(self, tmp_path, capsys, spans):
        # a call that stops going through a rebound name would leave its
        # span at 0 s in every traced benchmark run
        tracer = spans.Tracer()
        with tracer.installed(trsw):
            with tracer.call():
                # ex6 has variable f, so the Simpson source runs; snapshots
                # and diagnostics make both writers run
                assert trsw.cli.main([
                    "--scenario", "ex6", "--cells", "40", "--t-final", "1.0",
                    "--snapshots", "0.5,1.0", "--diagnostics",
                    "--out", str(tmp_path)]) == 0
            with tracer.call():
                scenario = trsw.make_scenario("ex3b", cells=40, t_final=0.05)
                assert not trsw.run_simulation(scenario).failed
        calls = tracer.layer_times(0, len(tracer.start))
        silent = sorted({name for _, _, name, _ in spans.TARGETS
                         if name not in calls})
        assert silent == []
