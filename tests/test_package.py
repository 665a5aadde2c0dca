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

    def test_track_loads_only_what_it_runs(self, tmp_path):
        """Each CLI stage, in a fresh interpreter started without `site`
        (so only the package's own imports count), loads only the
        submodules it runs, and neither `dataclasses` nor `inspect`."""
        src = os.path.dirname(os.path.dirname(unexpect.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "zipf", "length": 20, "alphabet": 5}')
        events, trace, snap = (str(tmp_path / name)
                               for name in ("events", "trace", "snap"))
        base = ["unexpect", "unexpect.cli", "unexpect.core", "unexpect.engine",
                "unexpect.estimators", "unexpect.memory"]
        stages = [
            (["simulate", "--spec", str(spec), "--out", events],
             base + ["unexpect.simgen"]),
            (["track", "-i", events, "-o", trace, "--snapshot-out", snap], base),
            (["replay", "--snapshot", snap, "-i", os.devnull, "-o", os.devnull],
             base),
            (["divergence", "--from-trace", "--normalize-mind", "-i", trace,
              "-o", os.devnull], base + ["unexpect.divergence"]),
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
