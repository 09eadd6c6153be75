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


def _reached_as_trsw_x():
    """Every X written as ``trsw.X`` in the README's library example, the
    benchmark's modules and the acceptance gate, less the submodules."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        library = fh.read().split("## Library use", 1)[1]
    texts = [re.search(r"```python\n(.*?)```", library, re.S).group(1)]
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


def _unreached_definitions():
    """Module-level functions and classes of src/trsw that no code outside
    the tests names: none of the package, the benchmark or the tools uses
    them as a name or an attribute, trsw.__all__ does not hold them, and
    the README does not write them as ``trsw.<module>.<name>``."""
    package = _parsed("src/trsw/*.py")
    defined = {node.name for tree in package for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))}
    used = set(trsw.__all__)
    for tree in package + _parsed("perfbench/*.py") + _parsed("tools/*.py"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    with open(os.path.join(ROOT, "README.md")) as fh:
        used.update(re.findall(r"\btrsw\.\w+\.(\w+)", fh.read()))
    return sorted(defined - used)


class TestReach:
    def test_every_module_level_definition_is_reached(self):
        # a function or class that only the tests call is code the
        # library, the CLI and the benchmark do not need
        assert _unreached_definitions() == []


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
