import json
import math

import numpy as np
import pytest

import psalience as ps
from psalience import fileio
from psalience.cli import main
from psalience.synthetic import correlated_pair_table, planted_interaction_table, random_adjusted_table


SCHEMA = {
    "attributes": [
        {"name": "region", "levels": ["north", "south"]},
        {"name": "band", "levels": ["lo", "hi"]},
    ]
}


def write_schema(path):
    fileio.atomic_write_json(path, SCHEMA)
    return str(path)


def write_csv(path, rows):
    path.write_text("\n".join(["region,band"] + rows) + "\n", encoding="utf-8")
    return str(path)


# -------------------------------------------------------------- tabulate

def test_tabulate_writes_adjusted_table(tmp_path):
    schema_path = write_schema(tmp_path / "schema.json")
    csv_path = write_csv(
        tmp_path / "micro.csv",
        ["north,lo"] * 3 + ["south,hi"] * 4 + ["north,hi"],
    )
    out = tmp_path / "table.json"
    assert main(["tabulate", "--schema", schema_path, "--input", csv_path, "--out", str(out)]) == 0
    table = fileio.load_table(out)
    assert table.adjusted
    assert math.isclose(table.counts.sum(), 8.0, rel_tol=1e-12)
    assert table.n_total == 8.0


def test_tabulate_unknown_label_names_row_and_attribute(tmp_path, capsys):
    schema_path = write_schema(tmp_path / "schema.json")
    rows = ["north,lo"] * 5 + ["north,mid"] + ["south,hi"]  # bad value on file row 7
    csv_path = write_csv(tmp_path / "micro.csv", rows)
    code = main(["tabulate", "--schema", schema_path, "--input", csv_path,
                 "--out", str(tmp_path / "t.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "row 7" in err
    assert "band" in err


def test_tabulate_empty_csv_body(tmp_path, capsys):
    schema_path = write_schema(tmp_path / "schema.json")
    csv_path = write_csv(tmp_path / "micro.csv", [])
    code = main(["tabulate", "--schema", schema_path, "--input", csv_path,
                 "--out", str(tmp_path / "t.json")])
    assert code == 3
    assert "no records" in capsys.readouterr().err


def test_tabulate_missing_file(tmp_path):
    schema_path = write_schema(tmp_path / "schema.json")
    code = main(["tabulate", "--schema", schema_path, "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "t.json")])
    assert code == 3


def test_tabulate_header_reordering(tmp_path):
    schema_path = write_schema(tmp_path / "schema.json")
    csv_path = tmp_path / "micro.csv"
    csv_path.write_text("band,region\nlo,north\nhi,south\nlo,north\nhi,north\nlo,south\n",
                        encoding="utf-8")
    out = tmp_path / "table.json"
    assert main(["tabulate", "--schema", schema_path, "--input", str(csv_path),
                 "--out", str(out)]) == 0
    table = fileio.load_table(out)
    assert table.n_total == 5.0


# ------------------------------------------------------------------ scan

def save_table(tmp_path, table, name="table.json"):
    path = tmp_path / name
    fileio.save_table(path, table)
    return str(path)


def test_scan_uniform_all_green(tmp_path):
    schema = ps.generic_schema(3, 3)
    table = ps.ContingencyTable(schema, np.full(27, 2.0), 54.0, adjusted=True)
    table_path = save_table(tmp_path, table)
    out = tmp_path / "report.json"
    assert main(["scan", "--table", table_path, "--k", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(e["warning"] == "green" for e in report["entries"])
    assert all(e["Psi"] == 0.0 for e in report["entries"])
    assert report["warning_bands"]["note"] == "configuration, not derived from any reference"


def test_scan_planted_pair_red_and_first(tmp_path):
    schema = ps.generic_schema(4, 3)
    table = correlated_pair_table(schema, (2, 0), weight=60.0)
    out = tmp_path / "report.json"
    assert main(["scan", "--table", save_table(tmp_path, table), "--k", "2",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    top = min(report["entries"], key=lambda e: e["rank"])
    assert top["subset"] == [2, 0]
    assert top["warning"] == "red"
    assert math.isclose(top["Psi"], math.sqrt(2 / 3), rel_tol=1e-9)
    assert [e["warning"] for e in report["entries"] if e["subset"] != [2, 0]] == ["green"] * 5


def test_scan_threshold_moves_amber_band(tmp_path):
    schema = ps.generic_schema(5, 3)
    table = planted_interaction_table(schema, (3, 1), strength=4.0)
    out = tmp_path / "report.json"
    assert main(["scan", "--table", save_table(tmp_path, table), "--k", "2",
                 "--threshold", "0.2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    top = min(report["entries"], key=lambda e: e["rank"])
    assert top["subset"] == [3, 1]
    assert top["warning"] == "amber"  # 0.707 is above 0.2 but below red 0.8


def test_scan_k_out_of_range_is_usage_error(tmp_path, rng):
    table = random_adjusted_table(ps.generic_schema(3, 2), rng)
    code = main(["scan", "--table", save_table(tmp_path, table), "--k", "3",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_scan_rejects_unadjusted_table(tmp_path):
    schema = ps.generic_schema(2, 2)
    raw = ps.ContingencyTable(schema, [5, 1, 1, 1], 8.0)
    code = main(["scan", "--table", save_table(tmp_path, raw), "--k", "1",
                 "--out", str(tmp_path / "r.json")])
    assert code == 3


# --------------------------------------------------------------- analyze

def test_analyze_uniform_tie_breaks_to_first_combo(tmp_path):
    schema = ps.generic_schema(3, 2)
    table = ps.ContingencyTable(schema, np.full(8, 3.0), 24.0, adjusted=True)
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--table", save_table(tmp_path, table), "--subset", "1,0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["Psi"] == 0.0
    assert len(payload["histogram"]) == 2
    assert payload["closest_to_gm"]["index"] == 0
    assert payload["closest_to_gm"]["conditioning"] == [0]


def test_analyze_identifies_spiked_slice(tmp_path):
    schema = ps.generic_schema(3, 3)
    counts = np.ones(27)
    counts[ps.lex_rank((0, 2, 0), schema)] = 40.0
    table = ps.ContingencyTable(schema, counts, float(counts.sum()), adjusted=True)
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--table", save_table(tmp_path, table), "--subset", "2,0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["histogram"]) == 3
    assert payload["max_psi"]["conditioning"] == [2]
    assert math.isclose(payload["max_psi"]["psi"], math.sqrt(1 - 1 / 9), rel_tol=1e-12)


def test_analyze_bad_subset_is_usage_error(tmp_path, rng):
    table = random_adjusted_table(ps.generic_schema(3, 2), rng)
    path = save_table(tmp_path, table)
    for bad in ("0,1", "5", "a,b"):
        assert main(["analyze", "--table", path, "--subset", bad,
                     "--out", str(tmp_path / "a.json")]) == 2


# --------------------------------------------------------- depersonalize

def test_depersonalize_identity_at_full_order(tmp_path, rng):
    schema = ps.generic_schema(3, 2)
    table = random_adjusted_table(schema, rng)
    out = tmp_path / "released.json"
    assert main(["depersonalize", "--table", save_table(tmp_path, table),
                 "--max-order", "3", "--out", str(out)]) == 0
    released = fileio.load_table(out)
    assert np.abs(released.counts - table.counts).max() < 1e-9
    audit = json.loads((tmp_path / "released.audit.json").read_text())
    assert audit["zeroed_blocks"] == []
    assert all(abs(e["delta"]) < 1e-9 for e in audit["entries"])


def test_depersonalize_order_limit_writes_audit(tmp_path, rng):
    schema = ps.generic_schema(4, 2)
    table = random_adjusted_table(schema, rng)
    out = tmp_path / "released.json"
    assert main(["depersonalize", "--table", save_table(tmp_path, table),
                 "--max-order", "1", "--out", str(out)]) == 0
    audit = json.loads((tmp_path / "released.audit.json").read_text())
    assert audit["mode"].startswith("order_limit")
    assert len(audit["zeroed_blocks"]) == 11  # all subsets of size >= 2 in N=4
    assert audit["violations"] == []
    released = fileio.load_table(out)
    refit = ps.fit_beta(ps.LogTable(schema, np.log(released.counts)))
    for subset, block in refit.blocks.items():
        if len(subset) > 1:
            assert np.linalg.norm(block) <= 1e-9


def test_depersonalize_selective_reports_closure(tmp_path, rng):
    schema = ps.generic_schema(3, 2)
    table = random_adjusted_table(schema, rng)
    out = tmp_path / "released.json"
    assert main(["depersonalize", "--table", save_table(tmp_path, table),
                 "--zero", "1,0", "--out", str(out)]) == 0
    audit = json.loads((tmp_path / "released.audit.json").read_text())
    assert audit["zeroed_blocks"] == [[1, 0], [2, 1, 0]]


def test_depersonalize_needs_exactly_one_mode(tmp_path, rng):
    table = random_adjusted_table(ps.generic_schema(3, 2), rng)
    path = save_table(tmp_path, table)
    assert main(["depersonalize", "--table", path, "--out", str(tmp_path / "r.json")]) == 2
    assert main(["depersonalize", "--table", path, "--max-order", "1", "--zero", "1,0",
                 "--out", str(tmp_path / "r.json")]) == 2


def test_depersonalize_round_counts(tmp_path, rng):
    schema = ps.generic_schema(3, 2)
    table = random_adjusted_table(schema, rng, n_total=463)
    out = tmp_path / "released.json"
    assert main(["depersonalize", "--table", save_table(tmp_path, table),
                 "--max-order", "1", "--round-counts", "--out", str(out)]) == 0
    released = fileio.load_table(out)
    assert np.array_equal(released.counts, np.rint(released.counts))
    assert released.counts.sum() == 463


# ----------------------------------------------------------------- verify

def test_verify_passes(capsys):
    assert main(["verify", "--n", "4", "--m", "2", "--seed", "1", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 6
    assert "FAIL" not in out


def test_verify_reports_basis_column_count():
    report = ps.run_verification(3, 3, seed=0, trials=5)
    dimensions = next(s for s in report.suites if s.name == "dimensions")
    assert dimensions.data["total_columns"] == 27


def test_verify_perturbation_self_test(capsys):
    assert main(["verify", "--n", "3", "--m", "2", "--self-test-perturb"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_size_guard():
    code = main(["verify", "--n", "13", "--m", "2"])
    assert code == 2


def test_verify_needs_at_least_one_trial(capsys):
    assert main(["verify", "--n", "2", "--m", "2", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err
    with pytest.raises(ps.ArgumentError):
        ps.run_verification(2, 2, trials=0)


def test_verify_builds_each_subspace_once(monkeypatch):
    built = []
    original = ps.basis._subspace_arrays

    def counting(n, m, subset):
        built.append(subset)
        return original(n, m, subset)

    monkeypatch.setattr(ps.basis, "_subspace_arrays", counting)
    assert ps.run_verification(3, 2, trials=1).passed
    assert sorted(built) == sorted(ps.all_subsets(3))


# ------------------------------------------------------------- round trip

def test_table_json_round_trip_is_exact(tmp_path, rng):
    schema = ps.generic_schema(3, 3)
    table = random_adjusted_table(schema, rng)
    # stress with values that do not have short decimal forms
    counts = table.counts * (1 + 1e-13)
    stressed = ps.ContingencyTable(schema, counts, float(counts.sum()), adjusted=True)
    path = tmp_path / "table.json"
    fileio.save_table(path, stressed)
    loaded = fileio.load_table(path)
    assert np.array_equal(loaded.counts, stressed.counts)
    assert loaded.n_total == stressed.n_total
    assert loaded.schema == stressed.schema
    assert loaded.adjusted == stressed.adjusted


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.json"
    fileio.atomic_write_json(target, {"x": 1})
    assert json.loads(target.read_text()) == {"x": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_malformed_json_is_data_error(tmp_path):
    bad = tmp_path / "table.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["scan", "--table", str(bad), "--k", "1", "--out", str(tmp_path / "r.json")]) == 3


def test_tabulate_invalid_utf8_is_data_error(tmp_path, capsys):
    schema_path = write_schema(tmp_path / "schema.json")
    csv_path = tmp_path / "micro.csv"
    csv_path.write_bytes(b"region,band\nnorth,lo\n\xff\xfe,hi\n")
    code = main(["tabulate", "--schema", schema_path, "--input", str(csv_path),
                 "--out", str(tmp_path / "t.json")])
    assert code == 3
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("counts", ["many", 2.0, 3.0, 4.0]),
    ("n_total", "lots"),
    ("adjusted", "false"),
    ("adjusted", 1),
])
def test_malformed_table_field_is_data_error(tmp_path, rng, capsys, field, value):
    payload = fileio.table_to_dict(random_adjusted_table(ps.generic_schema(2, 2), rng))
    payload[field] = value
    path = tmp_path / "table.json"
    fileio.atomic_write_json(path, payload)
    assert main(["scan", "--table", str(path), "--k", "1", "--out", str(tmp_path / "r.json")]) == 3
    assert field in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["scan"]) == 2
    assert main([]) == 2
