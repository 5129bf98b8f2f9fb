import hashlib
import json
from fractions import Fraction
from math import isqrt

import pytest

from conftest import gcd_poly, rational_span_coords
from ternlat import enumeration, linalg
from ternlat.enumeration import QueryMode, _targets
from ternlat.errors import ParseError, ValidationError
from ternlat.fieldscan import (GAP_SQUARE_MAX, FieldTable,
                               discriminant_bound_value,
                               exceptional_sets, ingest_fields,
                               load_field_file, parse_record,
                               quartic_gap_maximum, record_row,
                               scan_obstructions,
                               scan_small_condition, sum_of_squares_identities,
                               verify_identities, write_report)
from ternlat.numberfield import load_field, sqrt2_context


def test_ingest_table(table):
    assert len(table) >= 10
    labels = [r.label for r in table]
    for known in ("K1600", "K2048", "K2304", "K2624", "K7168", "K10816",
                  "K14336", "K18432", "K51200"):
        assert known in labels
    rec = table.by_label("K1600")
    assert rec.poly == (4, 0, -6, 0, 1) and rec.h == 1 and rec.h_plus == 1
    rec51 = table.by_label("K51200")
    assert rec51.poly == (50, 0, -20, 0, 1)
    assert (rec51.h, rec51.h_plus) == (2, 2)


def test_every_record_validates(table, fields_dir):
    for rec in table:
        ctx = table.context(rec.label)
        assert ctx.degree == rec.degree
        if rec.sqrt2 is not None:
            assert ctx.sqrt2 * ctx.sqrt2 == ctx.from_rational(2)
    # the writer and the reader of the format agree on every shipped record
    singles = [parse_record(json.loads(p.read_text()))
               for p in sorted(fields_dir.glob("*.json"))]
    assert len(singles) == 4
    for rec in [*table, *singles]:
        assert parse_record(record_row(rec)) == rec, rec.label


def test_parse_rejects_nonmonic():
    obj = {"label": "x", "degree": 2, "poly": [-2, 0, 1],
           "basis": [["1", "0"], ["0", "1"]], "disc": 8}
    parse_record(obj)
    # integer fields must be JSON integers, not floats truncated by int()
    # and disc must be the determinant of the basis trace form, itself
    # integral on a square basis; h >= 1 must divide h_plus with a power
    # of two, as on load
    for change in ({"poly": [1, 0, 2]}, {"poly": [-2.9, 0, 1]},
                   {"degree": 2.5}, {"basis": [["1", "0"], ["0", "1/0"]]},
                   {"disc": 9}, {"basis": [["1/2", "0"], ["0", "1"]]},
                   {"basis": [["1", "0"]]}, {"h": 0},
                   {"h": -1, "h_plus": 2}):
        with pytest.raises(ValidationError):
            parse_record({**obj, **change})


BOOL_OR_FLOAT = [{"degree": True}, {"poly": [False, True]}, {"disc": True},
                 {"h": True}, {"h_plus": True}, {"units": [[[True], 1]]},
                 {"units": [[[-1], True]]}, {"sqrt2": [True]},
                 {"basis": [[True]]}, {"basis": [[1.0]]}, {"basis": [[0.5]]}]


@pytest.mark.parametrize("change", BOOL_OR_FLOAT,
                         ids=[str(c) for c in BOOL_OR_FLOAT])
def test_parse_refuses_bools_and_float_basis_entries(change, tmp_path,
                                                     fields_dir):
    # `operator.index(True)` is 1 and `Fraction(True)`, `Fraction(1.0)` are
    # numbers: a JSON bool in an integer field, or a float or bool in
    # `basis`, is a malformed record, and in a table an error at its line
    obj = json.loads((fields_dir / "q.json").read_text())
    assert parse_record(obj).degree == 1
    with pytest.raises(ValidationError, match="not a JSON integer"):
        parse_record({**obj, **change})
    p = tmp_path / "bool.jsonl"
    p.write_text(json.dumps(obj) + "\n" +
                 json.dumps({**obj, **change, "label": "B"}) + "\n")
    with pytest.raises(ParseError, match="line 2: B: malformed record"):
        ingest_fields(p)


def test_ingest_rejects_a_wrong_disc(tmp_path, fields_dir):
    # a disc that is not the basis discriminant stops the read at its line,
    # rather than dropping the field from a scan's --max-disc range
    lines = (fields_dir / "quartic_sqrt2.jsonl").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if '"K1600"' in line)
    lines[i] = json.dumps({**json.loads(lines[i]), "disc": 999999})
    p = tmp_path / "wrong_disc.jsonl"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"line {i + 1}:.*K1600.*999999"):
        ingest_fields(p)


@pytest.mark.parametrize("change", [{"h": 0}, {"h": -1, "h_plus": 2}],
                         ids=["h-zero", "h-negative"])
def test_scan_reads_only_class_numbers_a_field_can_have(tmp_path, fields_dir,
                                                         change):
    # the unit filter of the small scan divides h_plus by h before any field
    # is loaded: a pair no field has stops the read at its line instead
    lines = (fields_dir / "quartic_sqrt2.jsonl").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if '"K51200"' in line)
    lines[i] = json.dumps({**json.loads(lines[i]), **change})
    p = tmp_path / "bad_h.jsonl"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError,
                       match=f"line {i + 1}:.*K51200.*h >= 1 times 2"):
        scan_small_condition(ingest_fields(p), 60000)


@pytest.mark.parametrize("change", [{"h": 0}, {"h": -1, "h_plus": 2}],
                         ids=["h-zero", "h-negative"])
def test_scan_of_records_not_parsed_checks_class_numbers(table, change):
    # a table built from records directly skips `parse_record`: the scan
    # makes such a pair an error verdict before its unit filter divides
    # h_plus by h (h = 0 raised ZeroDivisionError, h = -1 gave a ratio -2)
    rec = table.by_label("K51200")._replace(**change)
    [v] = scan_small_condition(FieldTable((rec,)), 60000)["verdicts"]
    assert v["status"] == "error" and "h_plus_over_h" not in v
    assert v["error"] == ("FieldDataError: K51200: h_plus is not h >= 1 "
                          "times 2^k")


@pytest.mark.parametrize("text", [b"[1, 2]", b'"K"', b'{"label": "\xff"}'],
                         ids=["list", "string", "not-utf-8"])
def test_field_files_that_are_not_json_objects(tmp_path, text):
    # both readers refuse a JSON value that is not an object, and bytes
    # that are not UTF-8, with the package's errors; a single-field file
    # also refuses invalid JSON
    table = tmp_path / "t.jsonl"
    table.write_bytes(b"# comment\n" + text + b"\n")
    with pytest.raises(ParseError, match="line 2: "):
        ingest_fields(table)
    single = tmp_path / "f.json"
    for content in (text, text[:-1]):
        single.write_bytes(content)
        with pytest.raises(ValidationError):
            load_field_file(single)


def test_table_rejects_a_repeated_label(table):
    rec = table.by_label("K1600")
    with pytest.raises(ValidationError, match="duplicate labels"):
        FieldTable((rec, table.by_label("K2048"), rec))


def test_ingest_bad_json(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"label": "ok"\n')
    with pytest.raises(ParseError):
        ingest_fields(p)


def test_ingest_skips_comments_and_blanks(tmp_path, fields_dir):
    src = (fields_dir / "quartic_sqrt2.jsonl").read_text().splitlines()
    p = tmp_path / "t.jsonl"
    p.write_text("# comment\n\n" + src[0] + "\n")
    table = ingest_fields(p)
    assert len(table) == 1


def test_scan_small_condition_sets(table):
    rep = scan_small_condition(table, 20000, unit_filter=True)
    sets = exceptional_sets(rep)
    assert set(sets["3lambda"]) == {"K2048", "K2624"}
    assert set(sets["6"]) == {"K1600", "K2048", "K2624", "K10816"}
    rep_off = scan_small_condition(table, 20000, unit_filter=False)
    sets_off = exceptional_sets(rep_off)
    assert set(sets_off["3lambda"]) == {"K2048", "K2624", "K7168", "K18432"}
    assert set(sets_off["6"]) == {"K1600", "K2048", "K2624", "K10816",
                                  "K2304", "K7168", "K14336"}


# sha256 of json.dumps([[label, box_3lambda, box_6], ...], sort_keys=True)
# over the verdicts of a fresh table, pinned before the boxes took their
# targets once per root state, and re-pinned when every box's root_width
# became that of the root state it was certified at (2^-32, not 1/256)
GOLDEN_SCAN_BOXES = \
    "8c94ff3a792980447ce8d1d81558bd4cd5b238fc6d493dc915347fc59803a323"


def test_scan_boxes_are_unchanged(fields_dir):
    table = ingest_fields(fields_dir / "quartic_sqrt2.jsonl")
    rep = scan_small_condition(table, 20000, unit_filter=False)
    boxes = [[v["label"], v["box_3lambda"], v["box_6"]]
             for v in rep["verdicts"] if v["status"] == "ok"]
    assert len(boxes) == 18
    digest = hashlib.sha256(json.dumps(boxes, sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN_SCAN_BOXES


def test_scan_boxes_rederive_at_their_root_width(table):
    # a stored box is re-derived on a fresh context refined to the width
    # it reports, byte for byte: the width is that of the root state the
    # box was certified at
    rep = scan_small_condition(table, 20000, unit_filter=False)
    checked = 0
    for v in rep["verdicts"]:
        if v["status"] != "ok":
            continue
        for key, bound in (("box_3lambda", lambda c: 3 * (2 + c.sqrt2)),
                           ("box_6", lambda c: c.from_rational(6))):
            box = v[key]
            ctx = load_field(table.by_label(v["label"]))
            ctx.refine_roots(Fraction(box["root_width"]))
            b = bound(ctx)
            again = enumeration._build_box(
                ctx, lambda: _targets(ctx, b, QueryMode.SQUARE_DOMINATED),
                10 ** 8)
            assert again.to_dict() == box, (v["label"], key)
            checked += 1
    assert checked == 36


def test_scan_inverts_each_root_state_once(fields_dir, monkeypatch):
    # K1600's four boxes are built at the root state of its fixed-point
    # table, each in two rounds: one Bareiss midpoint inverse serves the
    # eight certified inverses
    calls = {"midpoint_inverse": 0, "interval_inverse": 0}
    for name in calls:
        def counted(*args, _f=getattr(linalg, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(linalg, name, counted)
    table = ingest_fields(fields_dir / "quartic_sqrt2.jsonl")
    rep = scan_small_condition(table, 1600, unit_filter=False)
    assert [v["label"] for v in rep["verdicts"]] == ["K1600"]
    assert calls == {"midpoint_inverse": 1, "interval_inverse": 8}


# sha256 of json.dumps(errors, sort_keys=True) over the error verdicts of
# the three scans below, re-pinned when every obstruct field reached the
# search: 7 + 18 + 19 errors (7 + 18 + 1 while h and h+ chose the route)
GOLDEN_ERROR_VERDICTS = \
    "93a338036cf49f3405f1cfcec90b2ebbcb43573995484148c73c47dfa5214fd7"


def test_scan_error_verdicts(fields_dir):
    # a ceiling of 1 is below every box, so each field that reaches a
    # search gets an error verdict and the scan goes on
    table = ingest_fields(fields_dir / "quartic_sqrt2.jsonl")
    reports = [scan_small_condition(table, 20000, ceiling=1),
               scan_small_condition(table, 20000, unit_filter=False,
                                    ceiling=1),
               scan_obstructions(table, 250000, ceiling=1)]
    small = {"label", "disc", "status", "error"}
    errors = []
    for rep, keys in zip(reports, (small, small, small | {"h", "h_plus"})):
        for v in rep["verdicts"]:
            if v["status"] == "error":
                assert set(v) == keys
                assert v["error"].startswith("BoxTooLarge: ")
                errors.append(v)
    assert len(errors) == 44
    digest = hashlib.sha256(json.dumps(errors, sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN_ERROR_VERDICTS


def test_scan_witnesses_reverify(table):
    rep = scan_small_condition(table, 20000, unit_filter=True)
    for v in rep["verdicts"]:
        if v.get("status") != "ok" or not v["exceptional_3lambda"]:
            continue
        ctx = table.context(v["label"])
        lam = 2 + ctx.sqrt2
        for coords in v["witnesses_3lambda"]:
            w = ctx.element(coords)
            assert (3 * lam - w * w).is_totally_nonnegative()
            assert rational_span_coords(w, [ctx.one, ctx.sqrt2]) is None


def test_scan_determinism(fields_dir):
    # fresh tables: reports must be identical apart from timing fields
    t1 = ingest_fields(fields_dir / "quartic_sqrt2.jsonl")
    t2 = ingest_fields(fields_dir / "quartic_sqrt2.jsonl")
    a = scan_small_condition(t1, 6000, unit_filter=True)
    b = scan_small_condition(t2, 6000, unit_filter=True)
    strip = lambda r: [{k: v for k, v in verd.items() if k != "seconds"}
                       for verd in r["verdicts"]]
    assert strip(a) == strip(b)
    meta = lambda r: {k: v for k, v in r["metadata"].items()
                      if k != "elapsed_seconds"}
    assert meta(a) == meta(b)


# the metadata keys listed under "Reports" in README.md
SCAN_METADATA = {
    "small-condition": {"command", "bounds", "unit_filter", "ceiling",
                        "max_disc", "fields_scanned", "elapsed_seconds",
                        "version"},
    "obstruct": {"command", "pool_size", "ceiling", "max_disc",
                 "fields_scanned", "elapsed_seconds", "version"},
}


def test_scan_metadata_keys(table):
    small = scan_small_condition(table, 2000)
    obstruct = scan_obstructions(table, 2000)
    for report in (small, obstruct):
        meta = report["metadata"]
        assert set(meta) == SCAN_METADATA[meta["command"]]


def test_scan_obstructions_certifies_every_field(table):
    # one route: every field is searched, whatever its h and h+, which are
    # only echoed (K2304 and K7168 have h+ = 2h, K1600 has h = 1)
    rep = scan_obstructions(table, 9999)
    assert len(rep["verdicts"]) == 9
    for v in rep["verdicts"]:
        assert v["status"] == "certificate", v["label"]
        assert v["certificate"]["valid"]
        rec = table.by_label(v["label"])
        assert (v["h"], v["h_plus"]) == (rec.h, rec.h_plus)


def test_write_report_roundtrip(table, tmp_path):
    rep = scan_small_condition(table, 3000, unit_filter=True)
    out = tmp_path / "report.json"
    write_report(rep, out)
    loaded = json.loads(out.read_text())
    assert loaded["verdicts"] == rep["verdicts"]


def test_sum_of_squares_identities():
    ctx = sqrt2_context()
    res = sum_of_squares_identities(ctx)
    assert [r["form"] for r in res] == ["Q1", "Q2", "Q3", "Q3p"]
    assert all(r["exact"] for r in res)
    assert res[1]["squares"] == 3       # the second form needs only three


def test_gap_maximum():
    g = quartic_gap_maximum()
    assert g["error"] <= 1e-9
    shape = sorted(abs(x) for x in g["argmax"])
    assert abs(shape[0] - 0.4472135955) < 1e-6
    assert abs(shape[3] - 1.0) < 1e-12


def test_gap_maximum_is_attained_and_is_the_bound_factor():
    # g = 2(1 - b^2)(1 - c^2)(c - b) at c = -b, b^2 = 1/5, squared exactly
    b2 = Fraction(1, 5)
    g2 = 4 * (1 - b2) ** 2 * (1 - b2) ** 2 * (4 * b2)
    assert g2 == Fraction(2 ** 12, 5 ** 5) == GAP_SQUARE_MAX
    # (6 + 3 sqrt2)^6 = a + b sqrt2, multiplied out in Z[sqrt2]
    a, b = 1, 0
    for _ in range(6):
        a, b = 6 * a + 6 * b, 3 * a + 6 * b
    # sqrt2 lies between r / 2^32 and (r + 1) / 2^32, r = isqrt(2^65)
    r = isqrt(2 << 64)
    lo, hi = Fraction(r, 1 << 32), Fraction(r + 1, 1 << 32)
    assert lo * lo < 2 < hi * hi
    bound = discriminant_bound_value()
    assert bound["lower"] == float(g2 * (a + b * lo))
    assert bound["upper"] == float(g2 * (a + b * hi))


def test_verify_identities():
    rep = verify_identities()
    assert rep["ok"]
    assert abs(rep["disc_bound"]["value"] - 1513496.96) <= 0.01


def test_ingest_nonmonic_row_is_parse_error(tmp_path):
    p = tmp_path / "t.jsonl"
    p.write_text('{"label": "x", "degree": 2, "poly": [1, 0, 2], '
                 '"basis": [["1", "0"], ["0", "1"]], "disc": 8}\n')
    with pytest.raises(ParseError):
        ingest_fields(p)


def test_field_file_table_selector(fields_dir):
    ctx = load_field_file(f"{fields_dir}/quartic_sqrt2.jsonl#K2048")
    assert ctx.record.label == "K2048"


def test_report_carries_box_parameters(table):
    rep = scan_small_condition(table, 3000, unit_filter=True)
    ok_rows = [v for v in rep["verdicts"] if v["status"] == "ok"]
    assert ok_rows
    for v in ok_rows:
        assert "lows" in v["box_3lambda"] and "root_width" in v["box_6"]


def test_exceptional_witness_disc_bound(table):
    # cross-check: a witness generating the whole field certifies the field
    # discriminant under the degree-4 bound; a witness living in a quadratic
    # subfield instead satisfies the small-trace side condition
    from ternlat import linalg, polys
    rep = scan_small_condition(table, 20000, unit_filter=False)
    for v in rep["verdicts"]:
        if v.get("status") != "ok":
            continue
        for key in ("3lambda", "6"):
            if not v[f"exceptional_{key}"]:
                continue
            ctx = table.context(v["label"])
            for coords in v[f"witnesses_{key}"]:
                w = ctx.element(coords)
                charpoly = linalg.charpoly(w.mult_matrix_scaled())
                if polys.degree(gcd_poly(charpoly,
                                               polys.diff(charpoly))) == 0:
                    house = float(max(max(-iv.lo, iv.hi)
                                      for iv in ctx.embeddings(w)))
                    bound = (2 ** 12 / 5 ** 5) * house ** 12
                    assert ctx.record.disc <= bound + 1e-6, (v["label"], key)
                else:
                    assert (w * w).trace() <= 24, (v["label"], key)
