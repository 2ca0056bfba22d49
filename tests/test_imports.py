"""Start-up: ``import psalience`` loads no submodule, and each CLI command
loads only the modules it runs, and never ``dataclasses``, whose classes
generate code at import.  Every check runs in a fresh interpreter, because
this one has long since imported the whole package."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import psalience as ps
from psalience import fileio
from psalience.synthetic import random_adjusted_table

SRC = str(Path(ps.__file__).resolve().parents[1])
LOADED = "sorted(m for m in sys.modules if m.startswith('psalience.') or m == 'dataclasses')"


def fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last and its stderr."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_import_loads_no_submodule():
    assert fresh(f"import json, sys, psalience; print(json.dumps({LOADED}))")[0] == []


def test_lazy_namespace_resolves_every_public_name():
    result, _ = fresh("""
        import json, sys
        import psalience as ps
        from psalience import *
        from psalience import fileio
        names = ps.__all__
        try:
            ps.no_such_name
            unknown = "resolved"
        except AttributeError:
            unknown = "AttributeError"
        print(json.dumps({
            "unbound": [n for n in names if n not in globals()],
            "basis": ps.basis is sys.modules["psalience.basis"],
            "fileio": fileio is sys.modules["psalience.fileio"] is ps.fileio,
            "dir": sorted(set(names) - set(dir(ps))),
            "unknown": unknown,
        }))
    """)
    assert result == {"unbound": [], "basis": True, "fileio": True, "dir": [],
                      "unknown": "AttributeError"}


def test_synthetic_tables_load_no_oracle():
    loaded, _ = fresh(f"import json, sys, psalience.synthetic; print(json.dumps({LOADED}))")
    assert "psalience.synthetic" in loaded and "psalience.reference" not in loaded


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    schema = ps.generic_schema(3, 2)
    fileio.atomic_write_json(root / "schema.json", fileio.schema_to_dict(schema))
    names = ",".join(schema.names)
    rows = [",".join(f"{(i >> a) & 1}" for a in range(3)) for i in range(20)]
    (root / "micro.csv").write_text("\n".join([names, *rows]) + "\n", encoding="utf-8")
    fileio.save_table(root / "table.json", random_adjusted_table(schema, np.random.default_rng(3)))
    return root


BASE = {"psalience.cli", "psalience.errors"}
COMMANDS = {
    "version": ["--version"],
    "tabulate": ["tabulate", "--schema", "{d}/schema.json", "--input", "{d}/micro.csv",
                 "--out", "{d}/t.json"],
    "scan": ["scan", "--table", "{d}/table.json", "--k", "1", "--out", "{d}/s.json"],
    "analyze": ["analyze", "--table", "{d}/table.json", "--subset", "1,0", "--out", "{d}/a.json"],
    "depersonalize": ["depersonalize", "--table", "{d}/table.json", "--max-order", "1",
                      "--out", "{d}/r.json"],
    "verify": ["verify", "--n", "2", "--m", "2", "--trials", "1"],
}


def command_modules(argv, directory):
    argv = [arg.format(d=directory) for arg in argv]
    (code, loaded), stderr = fresh(f"""
        import json, sys
        from psalience.cli import main
        code = main({argv!r})
        print(json.dumps([code, {LOADED}]))
    """)
    assert code == 0, stderr
    return set(loaded)


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_what_it_runs(inputs, command):
    loaded = command_modules(COMMANDS[command], inputs)
    assert "dataclasses" not in loaded
    if command == "version":
        assert loaded == BASE
    elif command == "tabulate":
        assert loaded == BASE | {"psalience.table", "psalience.fileio"}
    elif command == "verify":
        assert {"psalience.verify", "psalience.synthetic", "psalience.reference"} <= loaded
    else:
        assert not loaded & {"psalience.verify", "psalience.synthetic", "psalience.reference"}, loaded


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(Path(ps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}
