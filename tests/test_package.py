import importlib
import json
import os
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

    def test_track_loads_only_what_it_runs(self):
        # A fresh interpreter, so that other tests' imports do not count.
        src = os.path.dirname(os.path.dirname(unexpect.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = (
            "import json, sys\n"
            "from unexpect.cli import main\n"
            "code = main(['track'])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules"
            " if m.startswith('unexpect'))]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], input="", capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        code, loaded = json.loads(result.stdout)
        assert code == 0
        assert loaded == ["unexpect", "unexpect.cli", "unexpect.core",
                          "unexpect.engine", "unexpect.estimators",
                          "unexpect.memory"]
