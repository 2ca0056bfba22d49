"""Hostile arguments: a property over every command's flags.

Command lines drawn from each command's flags, with hostile values, drive
``cli.main`` in process, in a fresh directory that holds a small table, its
schema and microdata, a directory and a link to the table.  Every run exits 0
to 3, and exit 1 comes only from ``verify`` or ``depersonalize``.  A run that
fails prints exactly one ``error:`` line and no traceback, and a refusal by
the parser (its usage first) reads no input.
"""

import io
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psalience as ps
from psalience import fileio
from psalience.cli import main
from psalience.synthetic import random_adjusted_table

HOSTILE = ["", " ", "\t", "-", "+1", "-0", "-1", "1_0", "\u0661", "\uff11", "\u0660.\u0665", "nan", "inf",
           "-inf", ".", "..", "/", ",", "1,", "1,,0", "1e0", "0x1"]
PAST_2_64 = [str(2**64 + 1), str(-(2**64) - 1)]
PATHS = ["table.json", "./table.json", "link.json", "missing.json", "dir", "dir/out.json", "schema.json",
         "micro.csv", "out.json", "out.audit.json"]

TEXT = st.sampled_from(HOSTILE + PAST_2_64 + PATHS)
OUT = st.just("out.json")
SUBSET = st.lists(st.integers(0, 3).map(str), min_size=1, max_size=3).map(",".join)
SCHEMA = b'{"attributes": [{"name": "a", "levels": ["x", "y"]}, {"name": "b", "levels": ["x", "y"]}]}'
MICRODATA = b"a,b\nx,y\ny,x\nx,x\ny,y\nx,y\n"
LOADERS = ("load_schema", "load_table", "count_microdata")  # every input a command reads
TABLE = fileio.table_to_dict(random_adjusted_table(ps.generic_schema(3, 2), np.random.default_rng(7)))

# command -> its flags, each with its usual values (None for a switch) and whether it is optional.
# The table has N=3 and M=2; verify's --n and --m stay at most 3 and --trials at most 2.
FLAGS = {
    "tabulate": [("--schema", st.just("schema.json"), False), ("--input", st.just("micro.csv"), False),
                 ("--out", OUT, False)],
    "scan": [("--table", st.just("table.json"), False), ("--k", st.integers(0, 3).map(str), False),
             ("--threshold", st.sampled_from(["0", "0.5", "1", "1.0", ".5", "1.", "1.5"]), True),
             ("--workers", st.integers(1, 3).map(str), True), ("--out", OUT, False)],
    "analyze": [("--table", st.just("table.json"), False), ("--subset", SUBSET, False), ("--out", OUT, False)],
    "depersonalize": [("--table", st.just("table.json"), False), ("--max-order", st.integers(1, 4).map(str), True),
                      ("--zero", SUBSET, True), ("--zero", SUBSET, True), ("--no-renormalize", None, True),
                      ("--round-counts", None, True), ("--out", OUT, False)],
    "verify": [("--n", st.integers(1, 3).map(str), False), ("--m", st.integers(2, 3).map(str), False),
               ("--seed", st.integers(0, 3).map(str), True), ("--trials", st.integers(1, 2).map(str), False),
               ("--self-test-perturb", None, True)],
}


@st.composite
def command_lines(draw):
    """A command with most of its flags and some of its optional ones, in any order.  Each
    value is a usual one but for up to two, which are hostile."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = draw(st.permutations([(flag, usual) for flag, usual, optional in FLAGS[command]
                                  if draw(st.integers(0, 9)) < (5 if optional else 9)]))
    hostile = draw(st.sets(st.integers(0, max(len(flags) - 1, 0)), max_size=2))
    argv = [command]
    for i, (flag, usual) in enumerate(flags):
        if usual is None:
            argv.append(flag)
        elif i not in hostile:
            argv += [flag, draw(usual)]
        else:  # a count past 2**64 would be a long run, not a refusal
            argv += [flag, draw(st.sampled_from(HOSTILE) if flag == "--trials" else TEXT)]
    return argv


@settings(max_examples=250, deadline=None)
@given(argv=command_lines())
@example(argv=["verify", "--n", "2", "--m", "2", "--trials", "1", "--self-test-perturb"])
def test_hostile_arguments_exit_0_to_3_with_one_error_line(tmp_path_factory, argv):
    directory = tmp_path_factory.mktemp("arguments")
    fileio.atomic_write_json(directory / "table.json", TABLE)
    (directory / "schema.json").write_bytes(SCHEMA)
    (directory / "micro.csv").write_bytes(MICRODATA)
    (directory / "dir").mkdir()
    os.symlink("table.json", directory / "link.json")
    loaders = {name: mock.Mock(wraps=getattr(fileio, name)) for name in LOADERS}
    stdout, stderr = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True) for _ in range(2)]
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with mock.patch.multiple(fileio, **loaders), redirect_stdout(stdout), redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    finally:
        os.chdir(cwd)
    err = stderr.buffer.getvalue().decode("utf-8")
    assert code in (0, 1, 2, 3), code
    assert code != 1 or argv[0] in ("verify", "depersonalize"), err
    assert "Traceback" not in err
    if code == 0:
        assert err == "", err
    else:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
    if err.startswith("usage:"):
        assert code == 2 and not any(loader.called for loader in loaders.values()), err
