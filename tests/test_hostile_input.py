"""Hostile input: a property over every reader the command line runs.

Mutations of valid schema, table and microdata files drive ``cli.main`` in
process.  Each run must exit 3 with one ``error:`` line, or exit 0 with output
that reloads; an uncaught exception (a traceback from the console script) or
any warning fails the property.
"""

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from psalience import fileio
from psalience.cli import main


class Raw(str):
    """JSON text written as it stands: tokens ``json.dumps`` never writes."""


class Obj(list):
    """A JSON object as its ``(key, value)`` pairs, so a key can repeat."""


def schema():
    return Obj([("attributes", [Obj([("name", "region"), ("levels", ["north", "south"])]),
                                Obj([("name", "band"), ("levels", ["lo", "hi"])])])])


def table():
    return Obj([("schema", schema()), ("counts", [1.5, 2, 3, 3.5]), ("n_total", 10), ("adjusted", True)])


# no record holds the label "hi", so tabulate reads a hostile "hi" without ever matching it
MICRODATA = b"region,band\nnorth,lo\nsouth,lo\nnorth,lo\nsouth,lo\nnorth,lo\nsouth,lo\n"

TABLE_COMMANDS = [["scan", "--k", "1"], ["analyze", "--subset", "1"], ["depersonalize", "--max-order", "1"],
                  ["depersonalize", "--max-order", "1", "--round-counts"]]

NUMBERS = st.sampled_from([Raw("NaN"), Raw("Infinity"), Raw("-Infinity"), Raw("1e400"), Raw("-1e400"),
                           Raw("5e-324"), Raw("-0.0"), Raw("0"), Raw("-1"), Raw("1e308"),
                           Raw("1" * 5000), Raw("-" + "9" * 5000), Raw("1" * 400)])
TEXTS = st.sampled_from([Raw('"\\ud800"'), Raw('"lo\\udfff"'), Raw('"\\udc80x"'), Raw('"\\ud83d"'), Raw('" lo"'),
                         Raw('""'), Raw('"\\u0000"'), Raw("1" * 5001), Raw("0")])
OTHER_TYPES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                        st.lists(st.integers(0, 9), max_size=5), st.just(Obj()))
DEEP = Raw("[" * 100_000 + "]" * 100_000)
BYTES = st.sampled_from([b"\xff", b"\xed\xa0\x80", b"\xc3", b'"', b",", b"\r", b"\n", b"\x00", b"zz", b"{", b"]"])


def children(value) -> list:
    if isinstance(value, Obj):
        return [child for _, child in value]
    return value if isinstance(value, list) else []


def paths(value, path=()):
    yield path
    for i, child in enumerate(children(value)):
        yield from paths(child, path + (i,))


def edit(value, path, kind, new):
    """Copy of ``value`` whose node at ``path`` is replaced by ``new``, dropped, or
    preceded by ``new`` (a repeated key in an object, one more element in an array)."""
    if not path:
        return new
    items, i = list(value), path[0]
    if isinstance(value, Obj):
        child, wrap = items[i][1], lambda v: (items[i][0], v)
    else:
        child, wrap = items[i], lambda v: v
    if len(path) > 1:
        items[i] = wrap(edit(child, path[1:], kind, new))
    elif kind == "replace":
        items[i] = wrap(new)
    elif kind == "drop":
        del items[i]
    else:
        items.insert(i, wrap(new))
    return type(value)(items)


def dump(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, Obj):
        return "{" + ",".join(f"{json.dumps(key)}:{dump(child)}" for key, child in value) + "}"
    if isinstance(value, list):
        return "[" + ",".join(map(dump, value)) + "]"
    return json.dumps(value)


def splice(draw, data: bytes) -> bytes:
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 3)))
    return data[:start] + draw(BYTES) + data[end:]


def node(value, path):
    for i in path:
        value = children(value)[i]
    return value


@st.composite
def hostile_json(draw, value):
    """One or two edits of ``value``'s tree, then maybe of its bytes."""
    for _ in range(draw(st.sampled_from([1, 1, 2]))):
        every = list(paths(value))
        leaves = [path for path in every if not children(node(value, path))]
        path = draw(st.sampled_from(every if draw(st.integers(0, 3)) == 0 else leaves))
        kinds = ["hostile"] * 3 + ["types", "deep"] + (["drop", "repeat"] if path else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "hostile":  # a hostile value of the node's own JSON type, else of another
            leaf = node(value, path)
            kind = "texts" if isinstance(leaf, str) else "numbers" if isinstance(leaf, (int, float)) else "types"
        new = {"numbers": NUMBERS, "texts": TEXTS, "types": OTHER_TYPES, "deep": st.just(DEEP),
               "drop": st.none(), "repeat": st.one_of(NUMBERS, TEXTS, OTHER_TYPES)}[kind]
        value = edit(value, path, kind if kind in ("drop", "repeat") else "replace", draw(new))
    data = dump(value).encode("utf-8")
    return splice(draw, data) if draw(st.integers(0, 4)) == 0 else data


@st.composite
def hostile_run(draw):
    """``(files, argv)``: the input files' bytes by name, one of them mutated, and a command."""
    files = {"schema.json": dump(schema()).encode(), "micro.csv": MICRODATA,
             "table.json": dump(table()).encode()}
    # tables are drawn twice as often: three commands read them
    target = draw(st.sampled_from(["micro.csv", "schema.json", "table.json", "table.json"]))
    if target == "micro.csv":
        files[target] = splice(draw, splice(draw, MICRODATA) if draw(st.booleans()) else MICRODATA)
    else:
        files[target] = draw(hostile_json(schema() if target == "schema.json" else table()))
    if target == "table.json":
        argv = [*draw(st.sampled_from(TABLE_COMMANDS)), "--table", "table.json"]
    else:
        argv = ["tabulate", "--schema", "schema.json", "--input", "micro.csv"]
    return files, argv


def reload(path) -> None:
    """A written file must be JSON whose text is UTF-8 once ``\\u`` escapes are undone."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    json.dumps(payload, ensure_ascii=False).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(run=hostile_run())
def test_hostile_input_exits_3_with_one_line_or_0_with_output_that_reloads(tmp_path_factory, run):
    files, argv = run
    directory = tmp_path_factory.mktemp("hostile")
    for name, data in files.items():
        (directory / name).write_bytes(data)
    argv = [str(directory / arg) if arg in files else arg for arg in argv]
    out = directory / "out.json"
    # strict UTF-8 streams, as a console's are
    stdout, stderr = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True) for _ in range(2)]
    with redirect_stdout(stdout), redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's warnings included
        code = main([*argv, "--out", str(out)])
    err = stderr.buffer.getvalue().decode("utf-8")
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        return
    assert code == 0 and err == "", (code, err)
    for path in [out, out.with_suffix(".audit.json")] if argv[0] == "depersonalize" else [out]:
        reload(path)
    if argv[0] in ("tabulate", "depersonalize"):
        fileio.load_table(out)
