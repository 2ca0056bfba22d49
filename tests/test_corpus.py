"""Every command against the committed output corpus (``tests/corpus``).

Each case of ``make_corpus.CASES`` reruns through ``cli.main`` on the
committed inputs.  Its output files and stdout must match the committed ones:
keys, key order, subsets, ranks, zero sets, violations and every other integer
or string exactly, and floats at 1e-12 relative.  A whole number of at least 1
(a count or a total) must match exactly.  A value below 1e-9 in magnitude is
rounding noise (a release's ``total_drift`` and ``refit_residual``, and
``verify``'s printed gaps), so the rerun's need only stay below 1e-9 too.
Byte identity is not asserted: other CPUs and numpy builds may round the last
digits differently.  A change that alters an output regenerates the corpus
with ``make_corpus.py`` and says what changed.
"""

import json
import math
import re
import shutil

import pytest

from make_corpus import CASES, CORPUS, TABLES, run_case

INPUTS = [f"{name}.json" for name in TABLES] + ["schema.json", "micro.csv"]
NUMBER = re.compile(r"([-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")


def same_float(expected: float, got: float) -> bool:
    if expected.is_integer() and abs(expected) >= 1.0:
        return got == expected
    if abs(expected) < 1e-9:
        return abs(got) < 1e-9
    return math.isclose(got, expected, rel_tol=1e-12, abs_tol=0.0)


def assert_same(expected, got, where: str) -> None:
    if isinstance(expected, dict):
        assert isinstance(got, dict) and list(got) == list(expected), f"{where}: keys {list(got)}"
        for key, value in expected.items():
            assert_same(value, got[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), f"{where}: length"
        for i, (e, g) in enumerate(zip(expected, got)):
            assert_same(e, g, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(got, float) and same_float(expected, got), f"{where}: {got!r} != {expected!r}"
    else:
        assert type(got) is type(expected) and got == expected, f"{where}: {got!r} != {expected!r}"


def assert_same_text(expected: str, got: str, where: str) -> None:
    """Lines equal, except that the numbers in them compare as :func:`same_float` does."""
    expected_lines, got_lines = expected.splitlines(), got.splitlines()
    assert len(got_lines) == len(expected_lines), f"{where}: {got}"
    for e_line, g_line in zip(expected_lines, got_lines):
        e_parts, g_parts = NUMBER.split(e_line), NUMBER.split(g_line)
        assert e_parts[::2] == g_parts[::2], f"{where}: {g_line!r} != {e_line!r}"
        for e, g in zip(e_parts[1::2], g_parts[1::2]):
            assert same_float(float(e), float(g)), f"{where}: {g_line!r} != {e_line!r}"


def test_the_corpus_holds_every_case_and_is_small():
    names = {p.name for p in CORPUS.iterdir()}
    outputs = names - set(INPUTS)
    assert set(INPUTS) <= names
    assert {name.split(".")[0] for name in outputs} == set(CASES)
    assert sum(p.stat().st_size for p in CORPUS.iterdir()) < 64 * 1024


@pytest.mark.parametrize("name", list(CASES))
def test_command_output_matches_the_corpus(tmp_path, monkeypatch, name):
    for item in INPUTS:
        shutil.copy(CORPUS / item, tmp_path / item)
    monkeypatch.chdir(tmp_path)
    code, stdout = run_case(CASES[name])
    assert code == 0
    assert_same_text((CORPUS / f"{name}.stdout").read_text(encoding="utf-8"), stdout, f"{name}.stdout")
    written = sorted(p.name for p in tmp_path.iterdir() if p.name not in INPUTS)
    assert written == sorted(p.name for p in CORPUS.glob(f"{name}.*json"))
    for item in written:
        expected = json.loads((CORPUS / item).read_text(encoding="utf-8"))
        assert_same(expected, json.loads((tmp_path / item).read_text(encoding="utf-8")), item)
