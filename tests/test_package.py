import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import unexpect


class TestLazyPackage:
    @pytest.mark.parametrize("name", unexpect.__all__)
    def test_name_resolves_to_its_submodules_object(self, name):
        owner = importlib.import_module(
            f"unexpect.{unexpect._SUBMODULE_OF[name]}")
        assert getattr(unexpect, name) is getattr(owner, name)

    def test_from_import(self):
        from unexpect import Engine, divergences
        from unexpect.divergence import divergences as owner_divergences
        from unexpect.engine import Engine as OwnerEngine

        assert Engine is OwnerEngine and divergences is owner_divergences

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from unexpect import *", namespace)
        for name in unexpect.__all__:
            assert namespace[name] is getattr(unexpect, name)
        assert "importlib" not in namespace

    def test_dir_lists_every_public_name(self):
        assert set(unexpect.__all__) <= set(dir(unexpect))
        assert "__version__" in dir(unexpect)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            unexpect.no_such_name
        with pytest.raises(ImportError):
            exec("from unexpect import no_such_name", {})
        assert not hasattr(unexpect, "parse_event")

    def test_track_loads_only_what_it_runs(self, tmp_path):
        """Each CLI stage, in a fresh interpreter started without `site`
        (so only the package's own imports count), loads only the
        submodules it runs, and neither `dataclasses` nor `inspect`:
        only `track` and `replay` load the engine and the estimators,
        and they do not load the other commands' handlers."""
        src = os.path.dirname(os.path.dirname(unexpect.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "zipf", "length": 20, "alphabet": 5}')
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({
            "nodes": [{"id": "c", "prior_bits": 1.0}, {"id": "s"}],
            "edges": [{"from": "c", "to": "s", "bits": 2.0}]}))
        events, trace, snap = (str(tmp_path / name)
                               for name in ("events", "trace", "snap"))
        base = ["unexpect", "unexpect.cli", "unexpect.core"]
        scoring = base + ["unexpect.cli_track", "unexpect.engine",
                          "unexpect.estimators", "unexpect.memory",
                          "unexpect.traceio"]
        tools = base + ["unexpect.cli_tools"]
        stages = [
            (["simulate", "--spec", str(spec), "--out", events],
             tools + ["unexpect.simgen"]),
            (["track", "-i", events, "-o", trace, "--snapshot-out", snap],
             scoring),
            (["replay", "--snapshot", snap, "-i", os.devnull, "-o", os.devnull],
             scoring),
            (["divergence", "--from-trace", "--normalize-mind", "-i", trace,
              "-o", os.devnull],
             tools + ["unexpect.divergence", "unexpect.traceio"]),
            (["explain", "--graph", str(graph), "--target", "s", "--cd", "3",
              "-o", os.devnull], tools + ["unexpect.causal"]),
        ]
        for argv, expected in stages:
            script = (
                "import json, sys\n"
                "from unexpect.cli import main\n"
                f"code = main({argv!r})\n"
                "print(json.dumps([code, sorted(m for m in sys.modules if"
                " m.startswith('unexpect') or m in ('dataclasses', 'inspect'))]))\n"
            )
            result = subprocess.run(
                [sys.executable, "-S", "-c", script], capture_output=True,
                text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
            )
            assert result.returncode == 0, result.stderr
            code, loaded = json.loads(result.stdout)
            assert code == 0, argv[0]
            assert loaded == sorted(expected), argv[0]


COMMANDS = ("track", "replay", "explain", "divergence", "simulate")


class TestEntryPoint:
    """Handlers are imported only once their command is known, so a handler
    module that fails to import would show up only when that command runs."""

    def test_project_script_target_imports_and_is_callable(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["unexpect"]
        assert target == "unexpect.cli:main"
        module, name = target.split(":")
        assert callable(getattr(importlib.import_module(module), name))

    def test_every_command_resolves_to_its_handler(self):
        from unexpect.cli import _handler, _make_parser

        parser = _make_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert tuple(subparsers.choices) == COMMANDS
        for command in COMMANDS:
            handler = _handler(command)
            assert callable(handler) and handler.__name__ == f"_cmd_{command}"

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_module_help_exits_zero_and_names_the_command(self, command):
        argv = [command, "--help"] if command else ["--help"]
        result = subprocess.run(
            [sys.executable, "-m", "unexpect.cli", *argv], capture_output=True,
            text=True, env=package_env(), timeout=60)
        assert (result.returncode, result.stderr) == (0, "")
        usage = f"usage: unexpect {command}" if command else "usage: unexpect"
        assert result.stdout.startswith(usage)

    def test_module_run_exits_one_naming_a_bad_flag(self):
        # Under -m the handlers import unexpect.cli as a second module;
        # main must still catch the _Exit they raise.
        result = subprocess.run(
            [sys.executable, "-m", "unexpect.cli", "track", "--alpha", "2"],
            capture_output=True, text=True, env=package_env(), timeout=60,
            stdin=subprocess.DEVNULL)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: --alpha must be (0, 1) exclusive, got 2.0\n"


def package_env():
    src = os.path.dirname(os.path.dirname(unexpect.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


PACKAGE_DIR = os.path.dirname(unexpect.__file__)
README = os.path.join(os.path.dirname(os.path.dirname(PACKAGE_DIR)), "README.md")


class TestPublicApi:
    def test_readme_documents_each_public_name(self):
        """The README's "Public API" section has one bullet per name in
        `__all__`, and none for a name outside it."""
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\* `([A-Za-z_]\w*)", section, re.MULTILINE)
        missing = set(unexpect.__all__).difference(documented)
        extra = set(documented).difference(unexpect.__all__)
        assert (missing, extra) == (set(), set())
        assert len(documented) == len(unexpect.__all__)  # one bullet each

    @pytest.mark.parametrize("module", sorted(
        name for name in os.listdir(PACKAGE_DIR) if name.endswith(".py")))
    def test_module_uses_every_name_it_imports(self, module):
        """A stdlib stand-in for pyflakes' F401: each imported name is read
        somewhere in the module, unless its import line says `# noqa: F401`
        (a re-export)."""
        with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        tree = ast.parse(source)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno]):
                    continue
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = {name: line for name, line in imported.items() if name not in used}
        assert unused == {}
