"""Start-up and exit: ``import psalience`` loads no submodule, and each CLI
command loads only the modules it runs, and never ``dataclasses``, whose
classes generate code at import; ``--version`` and ``tabulate`` never load
numpy; the process entry keeps ``main``'s exit codes and output and freezes
the heap only on its way out.  Every check
runs in a fresh interpreter, because this one has long since imported the
whole package."""

import ast
import gc
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import psalience as ps
from psalience import cli, fileio
from psalience.synthetic import random_adjusted_table

SRC = str(Path(ps.__file__).resolve().parents[1])
LOADED = "sorted(m for m in sys.modules if m.startswith('psalience.') or m in ('dataclasses', 'numpy'))"


def interpreter(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with ``args``, this checkout's ``src`` first on its path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last and its stderr."""
    proc = interpreter("-c", textwrap.dedent(code))
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
        assert loaded == BASE | {"psalience.schema", "psalience.fileio"}
    elif command == "verify":
        assert {"psalience.verify", "psalience.synthetic", "psalience.reference", "numpy"} <= loaded
    else:
        assert "numpy" in loaded
        assert not loaded & {"psalience.verify", "psalience.synthetic", "psalience.reference"}, loaded
    # a subset's complement lives in basis, so only analyze's geometric-mean table loads marginal
    if command in ("scan", "depersonalize", "verify"):
        assert "psalience.marginal" not in loaded, loaded
    elif command == "analyze":
        assert "psalience.marginal" in loaded


# Microdata over a schema whose level "far\nsouth" needs a quoted record spanning two lines,
# and what tabulate printed and returned for each before it stopped importing numpy.
BLOCKED_SCHEMA = {"attributes": [{"name": "region", "levels": ["north", "far\nsouth"]},
                                 {"name": "band", "levels": ["lo", "hi"]}]}
TABULATED = (0, "tabulated 5 records into 4 cells -> {d}/t.json\n", "")
BLOCKED_CASES = {
    "batched": (b"region,band\nnorth,lo\nnorth,hi\nnorth,lo\nnorth,hi\nnorth,lo\n", TABULATED),
    "multi-line record": (b'region,band\n"far\nsouth",hi\nnorth,lo\nnorth,lo\n"far\nsouth",lo\nnorth,hi\n',
                          TABULATED),
    "lone carriage return": (b"region,band\nnorth,lo\rnorth,hi\nnorth,lo\nnorth,hi\nnorth,lo\n", TABULATED),
    "byte-order mark": (b"\xef\xbb\xbfband,region\r\nlo,north\r\nhi,north\r\n\r\nlo,north\r\nlo,north\r\n"
                        b"hi,north\r\n", TABULATED),
    "byte-order mark and multi-line record": (b'\xef\xbb\xbfband,region\nlo,north\nhi,"far\nsouth"\n\n'
                                              b"lo,north\nlo,north\nhi,north\n", TABULATED),
    "unknown label": (b"region,band\nnorth,lo\nnorth,mid\nnorth,lo\nnorth,hi\nnorth,lo\n",
                      (3, "", "error: {d}/micro.csv: row 3: unknown level 'mid' for attribute 'band'\n")),
    "wrong field count": (b"region,band\nnorth,lo\nnorth,hi\nnorth,lo,hi\nnorth,lo\nnorth,lo\n",
                          (3, "", "error: {d}/micro.csv: row 4 has 3 fields, expected 2\n")),
    "invalid UTF-8": (b"region,band\nnorth,lo\nnorth,hi\nn\xffrth,lo\nnorth,lo\nnorth,lo\n",
                      (3, "", "error: {d}/micro.csv: row 4 is not valid UTF-8\n")),
    "header mismatch": (b"region,size\nnorth,lo\nnorth,hi\nnorth,lo\nnorth,lo\nnorth,lo\n",
                        (3, "", "error: {d}/micro.csv: header ['region', 'size'] does not match schema "
                                "attributes ['region', 'band']\n")),
    "header only": (b"region,band\n\n", (3, "", "error: {d}/micro.csv: no records after the header row\n")),
    "rows not above the cells": (b"region,band\nnorth,lo\nnorth,hi\nnorth,lo\nnorth,lo\n",
                                 (3, "", "error: population total 4.0 must exceed the cell count 4\n")),
}


@pytest.mark.parametrize("case", BLOCKED_CASES)
def test_tabulate_runs_with_numpy_unimportable(tmp_path, case):
    """With ``sys.modules["numpy"] = None`` any import of numpy raises, so each path of
    ``tabulate``, the record fallback and every data error included, must get by without
    it, with the same exit code, output and table file as before."""
    text, (code, out, err) = BLOCKED_CASES[case]
    fileio.atomic_write_json(tmp_path / "schema.json", BLOCKED_SCHEMA)
    (tmp_path / "micro.csv").write_bytes(text)
    proc = interpreter("-c", "import sys; sys.modules['numpy'] = None; from psalience.cli import run; run()",
                       "tabulate", "--schema", str(tmp_path / "schema.json"),
                       "--input", str(tmp_path / "micro.csv"), "--out", str(tmp_path / "t.json"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.format(d=tmp_path), err.format(d=tmp_path))
    if code == 0:
        schema = fileio.load_schema(tmp_path / "schema.json")
        table = ps.ContingencyTable(schema, *fileio.count_microdata(tmp_path / "micro.csv", schema))
        fileio.save_table(tmp_path / "library.json", ps.zero_adjust(table))
        assert (tmp_path / "t.json").read_bytes() == (tmp_path / "library.json").read_bytes()
    else:
        assert not (tmp_path / "t.json").exists()


ENTRY_CASES = {
    "version": (["--version"], 0),
    "usage error": (["scan", "--table", "{d}/table.json", "--k", "0", "--out", "{d}/s.json"], 2),
    "missing table": (["scan", "--table", "{d}/missing.json", "--k", "1", "--out", "{d}/s.json"], 3),
}


@pytest.mark.parametrize("case", ENTRY_CASES)
def test_module_entry_keeps_exit_codes_and_output(inputs, capsys, case):
    argv, expected = ENTRY_CASES[case]
    argv = [arg.format(d=inputs) for arg in argv]
    proc = interpreter("-m", "psalience.cli", *argv)
    assert proc.returncode == expected, proc.stderr
    # what the process prints is what main prints in process, which leaves the collector alone
    assert cli.main(argv) == expected
    assert gc.get_freeze_count() == 0
    out, err = capsys.readouterr()
    assert (proc.stdout, proc.stderr) == (out, err)
    last = (out or err).splitlines()[-1]
    if expected == 0:
        assert last == f"psalience {ps.__version__}"
    else:
        assert last.startswith("error: ") and not out


def test_module_entry_freezes_the_heap_before_the_exit_handlers_run():
    frozen, _ = fresh("""
        import atexit, gc, json, runpy, sys
        atexit.register(lambda: print(json.dumps(gc.get_freeze_count() > 0)))
        sys.argv = ["psalience", "--version"]
        runpy.run_module("psalience.cli", run_name="__main__", alter_sys=True)
    """)
    assert frozen is True


def test_console_script_is_the_function_the_module_guard_calls():
    pyproject = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^psalience\s*=\s*"([^"]+)"', scripts, re.M)
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (guard,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    (statement,) = guard.body
    assert ast.unparse(statement) == f"{target.split(':')[1]}()"
    assert target == "psalience.cli:run"


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
