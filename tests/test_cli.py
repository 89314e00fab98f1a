import json
import os
import random
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadclass import batch, cli, experiments, families, forms
from quadclass.cli import CacheCorruption, CacheRecord
from test_forms import without_divisor

# The largest |D| of a survey, and of a cache record, for D > 0 and D < 0.
LIMIT, LIMIT_NEG = experiments.survey_limit(), experiments.survey_limit(negative=True)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassgroupCommand:
    def test_known_value(self, capsys):
        code, out, _ = run_cli(capsys, "classgroup", "--d", "229")
        assert code == 0
        assert out == "d,h_plus,h,unit_norm,r3\n229,3,3,-1,1\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "classgroup", "--d", "-23", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {"d": -23, "h_plus": 3, "h": 3, "unit_norm": 0,
                        "three_torsion_count": 3, "r3": 1}

    def test_square_discriminant_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "classgroup", "--d", "9")
        assert code == 3
        assert "domain error" in err

    def test_too_large(self, capsys):
        code, _, err = run_cli(capsys, "classgroup", "--d", str(2**50))
        assert code == 2


class TestSieveCountCommand:
    def test_known_value(self, capsys):
        code, out, _ = run_cli(capsys, "sieve-count", "--x", "100", "--k", "4", "--l", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,k,l,count,main_term,relative_error"
        assert lines[1].startswith("100,4,1,20,")

    def test_noncoprime_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sieve-count", "--x", "100", "--k", "6", "--l", "3")
        assert code == 2
        assert "invalid arguments" in err


class TestFamilyValidation:
    def test_bad_t_prints_verdict(self, capsys):
        code, out, err = run_cli(capsys, "pairs", "--m", "1", "--n", "4", "--t", "2", "--x", "10")
        assert code == 2
        assert out == ""
        assert "t-clause" in err

    def test_bad_family_fails_fast(self, capsys):
        import time

        start = time.time()
        code, _, err = run_cli(capsys, "nh-average", "--m", "3", "--n", "6", "--x", str(10**12))
        assert code == 2
        assert time.time() - start < 0.1
        assert "even-N clause" in err

    def test_unknown_flag_exits_2(self, capsys):
        assert cli.run(["pairs", "--bogus", "1"]) == 2

    def test_jobs_validation(self, capsys):
        code, _, err = run_cli(capsys, "nh-average", "--m", "1", "--n", "4", "--x", "100", "--jobs", "0")
        assert code == 2

    def test_x_cap(self, capsys):
        code, _, err = run_cli(capsys, "nh-average", "--m", "1", "--n", "4", "--x", str(2**49))
        assert code == 2


class TestRenderReport:
    def test_empty_report_is_header_only(self, fam14=None):
        fam = families.validate(1, 4, 4, "theorem")
        rep = experiments.DensityReport("pairs", fam, "S", 0.5, {}, [])
        assert cli.render_report(rep, "csv") == ",".join(cli.CSV_COLUMNS) + "\n"

    def test_single_checkpoint_two_lines(self):
        fam = families.validate(1, 4, 4, "theorem")
        rep = experiments.pair_experiment(100, fam, [100])
        text = cli.render_report(rep, "csv")
        assert len(text.splitlines()) == 2

    def test_csv_and_json_values_agree(self):
        fam = families.validate(1, 4, 4, "theorem")
        rep = experiments.pair_experiment(500, fam, [100, 500])
        csv_lines = cli.render_report(rep, "csv").splitlines()
        header = csv_lines[0].split(",")
        payload = json.loads(cli.render_report(rep, "json"))
        assert len(payload["checkpoints"]) == len(csv_lines) - 1
        for row, cp in zip(csv_lines[1:], payload["checkpoints"]):
            for name, cell in zip(header, row.split(",")):
                if cell == "":
                    assert cp[name] is None
                elif "." in cell:
                    assert float(cell) == cp[name]
                else:
                    assert int(cell) == cp[name]

    def test_ratio_formatting(self):
        fam = families.validate(1, 4, 4, "theorem")
        rep = experiments.pair_experiment(100, fam, [100])
        row = cli.render_report(rep, "csv").splitlines()[1]
        cells = row.split(",")
        assert cells[0] == "100"
        assert cells[6] == f"{19 / 25:.6f}"
        assert cells[-1] == "0.013212"


class TestCache:
    def _records(self, n=1000):
        # cache_load refuses a D that is not a fundamental discriminant.
        rng = random.Random(47)
        ds = [d for d in rng.sample(range(2, 10**6), 4 * n) if _is_fundamental(d)][:n]
        assert len(ds) == n
        recs = []
        for d in ds:
            recs.append(CacheRecord(d, 6, 3, 1, 1))
        return recs

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.txt"
        recs = self._records()
        cli.cache_store(str(path), recs)
        loaded = cli.cache_load(str(path))
        assert loaded.rows.tolist() == sorted(map(list, recs))

    def test_file_format_is_canonical(self, tmp_path):
        path = tmp_path / "cache.txt"
        cli.cache_store(str(path), [CacheRecord(229, 3, 3, -1, 1), CacheRecord(-23, 3, 3, 0, 1)])
        raw = path.read_bytes()
        assert raw == b"-23,3,3,0,1\n229,3,3,-1,1\n"  # ascending, LF, no padding

    def test_known_line_loads(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("229,3,3,-1,1\n")
        assert cli.cache_load(str(path)).rows.tolist() == [[229, 3, 3, -1, 1]]
        assert cli.cache_load(str(path))[229] == forms.class_group_info(229)

    def test_invariant_violation_rejected(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("12,2,1,1,1\n")  # 3^1 does not divide h = 1
        with pytest.raises(CacheCorruption):
            cli.cache_load(str(path))

    @pytest.mark.parametrize("line", [
        "229,3,3,-1\n",          # missing field
        "229,3,3,-1,x\n",        # not an integer
        "229, 3,3,-1,1\n",       # padding
        "229,3,3,2,1\n",         # unit_norm outside {-1, 0, 1}
        "-23,3,3,-1,1\n",        # imaginary record with a unit norm
        "229,3,2,-1,1\n",        # h != h_plus despite norm -1
    ])
    def test_malformed_lines_rejected(self, tmp_path, line):
        path = tmp_path / "cache.txt"
        path.write_text(line)
        with pytest.raises(CacheCorruption):
            cli.cache_load(str(path))

    def test_unsorted_rejected(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("229,3,3,-1,1\n5,1,1,-1,0\n")
        with pytest.raises(CacheCorruption):
            cli.cache_load(str(path))

    def test_conflicting_merge_rejected(self, tmp_path):
        path = tmp_path / "cache.txt"
        cli.cache_store(str(path), [CacheRecord(229, 3, 3, -1, 1)])
        with pytest.raises(CacheCorruption):
            cli.cache_store(str(path), [CacheRecord(229, 9, 9, -1, 1)])

    def test_merge_keeps_existing(self, tmp_path):
        path = tmp_path / "cache.txt"
        cli.cache_store(str(path), [CacheRecord(5, 1, 1, -1, 0)])
        cli.cache_store(str(path), [CacheRecord(229, 3, 3, -1, 1)])
        assert set(cli.cache_load(str(path))) == {5, 229}

    @pytest.mark.parametrize("fault", [OSError, KeyboardInterrupt])
    def test_failed_write_keeps_old_cache(self, tmp_path, fault):
        class Faulty(int):
            def __str__(self):
                raise fault("write failed")

        path = tmp_path / "cache.txt"
        cli.cache_store(str(path), [CacheRecord(5, 1, 1, -1, 0), CacheRecord(229, 3, 3, -1, 1)])
        before = path.read_bytes()
        # Records are written in order of D, so the fault strikes after the line for 5.
        with pytest.raises(fault):
            cli.cache_store(str(path), [CacheRecord(13, 1, Faulty(1), -1, 0)])
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.txt"]

    def test_cli_corruption_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cache.txt"
        path.write_text("garbage\n")
        code, _, err = run_cli(capsys, "nh-average", "--m", "1", "--n", "4", "--x", "50",
                               "--cache", str(path))
        assert code == 4
        assert "cache corruption" in err


class TestEndToEndDeterminism:
    def test_jobs_and_cache_do_not_change_output(self, tmp_path, capsys):
        args = ["indivisibility", "--m", "1", "--n", "4", "--x", "2000"]
        base = run_cli(capsys, *args)
        cache = tmp_path / "warm.txt"
        variants = [
            args + ["--jobs", "4"],
            args + ["--cache", str(cache)],   # cold cache, writes it
            args + ["--cache", str(cache)],   # warm cache
            args + ["--cache", str(cache), "--jobs", "4"],
        ]
        for v in variants:
            code, out, _ = run_cli(capsys, *v)
            assert code == 0
            assert out == base[1]

    def test_cache_file_is_valid_and_reusable(self, tmp_path, capsys):
        cache = tmp_path / "c.txt"
        run_cli(capsys, "imaginary", "--m", "1", "--n", "4", "--x", "400", "--cache", str(cache))
        recs = cli.cache_load(str(cache))
        assert recs and all(d < 0 for d in recs)
        assert recs == experiments.compute_class_infos(list(recs))

    def test_lambda_certificates_rendered(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "--m", "17", "--n", "12", "--t", "12", "--x", "300")
        assert code == 0
        lines = out.splitlines()
        k = lines.index(",".join(cli.CERT_COLUMNS))
        assert lines[k + 1] == "5,12,-1,-1,1,1"
        code, out, _ = run_cli(capsys, "lambda", "--m", "17", "--n", "12", "--t", "12", "--x", "300",
                               "--format", "json")
        data = json.loads(out)
        assert data["certificates"][0]["certificate_d"] == 5


class TestProgress:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_progress_on_stderr_only(self, capsys, jobs):
        args = ["pairs", "--m", "1", "--n", "4", "--t", "4", "--x", "3000", "--jobs", jobs]
        code, plain, plain_err = run_cli(capsys, *args)
        assert code == 0 and plain_err == ""
        code, out, err = run_cli(capsys, *args, "--progress")
        assert code == 0
        assert out == plain
        lines = err.splitlines()
        assert lines and all(re.fullmatch(r"class groups: \d+/\d+", line) for line in lines)
        done, total = lines[-1].split(": ")[1].split("/")
        assert done == total


def _is_fundamental(d):
    """Whether d is a fundamental discriminant, by trial division: d = 1 mod
    4 and squarefree, or d = 4m with m = 2, 3 mod 4 and squarefree; not 1."""
    if d % 4 == 0 and d // 4 % 4 in (2, 3):
        d //= 4
    elif d % 4 != 1 or d == 1:
        return False
    return all(abs(d) % (p * p) for p in range(2, int(abs(d) ** 0.5) + 1))


def _valid_record(rec):
    """The record invariants cache_load enforces, one record at a time."""
    d, h_plus, h, unit_norm, r3 = rec
    if d == 0 or h_plus < 1 or h < 1 or r3 < 0 or unit_norm not in (-1, 0, 1):
        return False
    if d > LIMIT or -d > LIMIT_NEG:  # beyond what any survey computes
        return False
    if not _is_fundamental(d):
        return False
    # 3^r3 | h and 3 | h => r3 > 0; as 3^r3 >= 2^r3, a large r3 is refused
    # before 3**r3 is computed.
    if r3 >= h.bit_length() or h % 3**r3 or (r3 == 0 and h % 3 == 0):
        return False
    if d < 0:
        return unit_norm == 0 and h == h_plus
    return unit_norm != 0 and h_plus == h * (2 if unit_norm == 1 else 1)


def reference_load(path):
    """The per-line loader that cache_load replaced, plus the int64 field bound:
    the records of a valid file, or the number of its first bad line."""
    records, prev = {}, None
    with open(path, encoding="ascii", newline="") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw[:-1] if raw.endswith("\n") else raw
            try:
                rec = CacheRecord(*(int(p) for p in line.split(",")))
            except (TypeError, ValueError):  # not 5 fields, or not integers
                return lineno
            if (",".join(str(v) for v in rec) != line
                    or any(not -2**63 <= v < 2**63 for v in rec)
                    or not _valid_record(rec)
                    or (prev is not None and rec.D <= prev)):
                return lineno
            prev = rec.D
            records[rec.D] = rec
    return records


def vectorized_load(path):
    """cache_load's records, or the line number its CacheCorruption names."""
    try:
        return {row[0]: CacheRecord(*row) for row in cli.cache_load(path).rows.tolist()}
    except CacheCorruption as exc:
        m = re.match(re.escape(path) + r":(\d+): ", str(exc))
        assert m, str(exc)
        return int(m[1])


_JUNK_FIELDS = ["-0", "+5", "05", " 5", "5 ", "x", "", "1_0", "9223372036854775807",
                "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
                "12157665459056928801", "40"]


def _next_fundamental(d):
    """The least fundamental discriminant >= d."""
    while not _is_fundamental(d):
        d += 1
    return d


@st.composite
def _record_lines(draw):
    # A D that is not fundamental would refuse the file at its first line,
    # so valid lines draw fundamental D; _JUNK_LINES adds lines with 9D.
    d = draw(st.integers(-10**6, 10**6).map(_next_fundamental))
    r3 = draw(st.integers(0, 3))
    h = 3**r3 * draw(st.sampled_from([1, 2, 4] if r3 == 0 else [1, 2, 3, 4]))
    if d < 0:
        return f"{d},{h},{h},0,{r3}"
    unit_norm = draw(st.sampled_from([-1, 1]))
    return f"{d},{h * (2 if unit_norm == 1 else 1)},{h},{unit_norm},{r3}"


@st.composite
def _mutated_record_lines(draw):
    """A valid record line with one field replaced."""
    fields = draw(_record_lines()).split(",")
    small = st.integers(-3, 3).map(str)
    fields[draw(st.integers(0, 4))] = draw(st.one_of(small, small, st.sampled_from(_JUNK_FIELDS)))
    return ",".join(fields)


def _times_nine(line):
    """The record line with D replaced by 9D, which is not fundamental."""
    d, rest = line.split(",", 1)
    return f"{9 * int(d)},{rest}"


_JUNK_LINES = st.one_of(
    _mutated_record_lines(),
    _record_lines().map(_times_nine),
    st.lists(st.one_of(st.integers(-3, 3).map(str), st.sampled_from(_JUNK_FIELDS)),
             min_size=4, max_size=6).map(",".join),
    st.text(alphabet="0123456789,-+ \r", max_size=16),
)


@st.composite
def _cache_texts(draw):
    lines = sorted(draw(st.lists(_record_lines(), max_size=8)),
                   key=lambda line: int(line.split(",")[0]))
    for _ in range(draw(st.integers(0, 2))):
        junk = draw(st.one_of(_JUNK_LINES, _record_lines(), st.sampled_from(lines or [""])))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n", "\n\n"]))


class TestCacheParserReference:
    """cache_load accepts exactly the files the per-line reference accepts,
    and names the same first bad line."""

    @pytest.mark.parametrize("text,expected", [
        ("-0,1,1,0,0\n", 1),
        ("+5,1,1,-1,0\n", 1),
        ("05,1,1,-1,0\n", 1),
        ("5,1,1,-1,0\n229, 3,3,-1,1\n", 2),
        ("5,1,1,-1,0\r\n229,3,3,-1,1\r\n", 1),
        ("5,1,1,-1,0\n\n229,3,3,-1,1\n", 2),
        ("5,1,1,-1,0\n229,3,3,-1,1", {5, 229}),
        ("", set()),
        ("5,1,1,-1,0\n5,1,1,-1,0\n", 2),
        ("229,3,3,-1,1\n5,1,1,-1,0\n", 2),
        ("5,9223372036854775807,9223372036854775807,-1,0\n", {5}),
        ("5,1,1,-1,0\n8,9223372036854775808,9223372036854775808,-1,0\n", 2),
        ("-9223372036854775809,1,1,0,0\n-9223372036854775808,1,1,0,0\n", 1),
        ("5,9223372036854775807,9223372036854775807,-1,40\n", 1),
        # 3^40 fits this h_plus, so the per-line rules without the int64
        # bound accepted the line; the bound refuses the field.
        ("5,12157665459056928801,12157665459056928801,-1,40\n", 1),
        ("0,1,1,0,0\n5,1,1,-1,0\n", 1),
        ("5,1,1,-1,0\n229,3,3,-2,1\n", 2),
        ("5,1,1,-1,0\n12,2,1,1,1\n", 2),
        ("-23,3,3,0,0\n5,1,1,-1,0\n", 1),
        ("5,1,1,-1,0\n229,4,4,-1,1\n", 2),
        ("-3,2,1,0,0\n", 1),
        ("5,1,1,0,0\n", 1),
        ("5,2,2,1,0\n", 1),
        ("5,2,1,1,9223372036854775807\n", 1),
        ("-134217731,1,1,0,0\n5,1,1,-1,0\n", 1),
        ("5,1,1,-1,0\n134217729,1,1,-1,0\n", 2),
        # D = -2^27 and 2^27, each past the survey limit of its sign
        ("-134217728,1,1,0,0\n134217728,2,1,1,0\n", 1),
        (f"{-LIMIT_NEG - 1},1,1,0,0\n5,1,1,-1,0\n", 1),
        (f"5,1,1,-1,0\n{LIMIT + 1},1,1,-1,0\n", 2),
        (f"{-LIMIT_NEG},1,1,0,0\n{LIMIT},2,1,1,0\n", {-LIMIT_NEG, LIMIT}),
        ("9,1,1,-1,0\n229,3,3,-1,1\n", 1),
        ("5,1,1,-1,0\n45,1,1,-1,0\n229,3,3,-2,1\n", 2),
        (f"{-LIMIT_NEG - 1},1,1,0,0\n-12,1,1,0,0\n", 1),
    ], ids=["minus-zero", "plus-sign", "leading-zero", "padding", "crlf", "blank-line",
            "missing-final-lf", "empty-file", "duplicate-d", "descending-d", "19-digits-int64",
            "19-digits-beyond-int64", "below-int64", "r3-40", "r3-40-beyond-int64",
            "d-zero", "unit-norm-range", "3-torsion-exceeds-h",
            "r3-zero-with-3-dividing-h", "3^r3-not-dividing-h", "imaginary-inconsistent",
            "real-norm-zero", "real-h-plus-not-2h", "r3-int64-max", "d-below-minus-2^27",
            "d-above-2^27", "d-at-plus-minus-2^27", "d-below-minus-limit", "d-above-limit",
            "d-at-both-limits", "non-fundamental-first-line",
            "non-fundamental-before-invariant-fault", "non-fundamental-after-limit-fault"])
    def test_explicit_cases(self, tmp_path, text, expected):
        path = tmp_path / "cache.txt"
        path.write_bytes(text.encode("ascii"))
        got = vectorized_load(str(path))
        assert got == reference_load(str(path))
        assert (got if isinstance(got, int) else set(got)) == expected

    @settings(max_examples=300, deadline=None)
    @given(_cache_texts())
    def test_matches_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "cache.txt"
        path.write_bytes(text.encode("ascii"))
        assert vectorized_load(str(path)) == reference_load(str(path))

    def test_non_ascii_byte_is_corruption(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_bytes(b"5,1,1,-1,0\n2\xe9,1,1,-1,0\n")
        with pytest.raises(CacheCorruption, match=r":2: non-ASCII byte"):
            cli.cache_load(str(path))


_OVER = "9223372036854775808"  # 2^63, one past int64


class TestCacheLoadEdges:
    """cache_load names the first bad line of each file as path:line: reason,
    in one chunk and when every line is a chunk of its own."""

    @pytest.mark.parametrize("chunk", [1 << 20, 16], ids=["one-chunk", "a-chunk-a-line"])
    @pytest.mark.parametrize("text,expected", [
        ("5,1,1,-1,0\n229,3,3,-1,1", [5, 229]),
        ("5,1,1,-1,0\n229,3,3,-1,", "2: invalid literal for int() with base 10: ''"),
        ("", []),
        ("\n", "1: expected 5 fields"),
        ("5,1,1,-1,0\r\n229,3,3,-1,1\r\n", "1: non-canonical formatting"),
        ("5,1,1,-1,0\n229,3,3,-1,1\r\n", "2: non-canonical formatting"),
        ("5,1,1,-1\n229,3,3,-1,1\n", "1: expected 5 fields"),
        ("5,1,1,-1,0\n229,3,3,-1,01\n257,3,3,-1,1\n", "2: non-canonical formatting"),
        ("5,1,1,-1,0\n229,3,3,-1,1\n257,3,3,-1,1,\n", "3: expected 5 fields"),
        ("5,1,1,-1,0\n229,3,3,-1,1\n\n", "3: expected 5 fields"),
        ("5,1,1,-1,-0\n", "1: non-canonical formatting"),
        (f"5,1,1,-1,0\n229,3,3,-1\n257,{_OVER},{_OVER},-1,0\n", "2: expected 5 fields"),
        (f"5,1,1,-1,0\n257,{_OVER},{_OVER},-1,0\n229,3,3,-1\n",
         "2: field outside the int64 range"),
        ("5,1,1,-1,0\n9,1,1,-1,0\nx\n", "2: cached D=9 is not a fundamental discriminant"),
        (f"5,1,1,-1,0\n13,1,1,-1,0\n9,1,1,-1,0\n257,{_OVER},{_OVER},-1,0\n",
         "3: cached D=9 is not a fundamental discriminant"),
        (f"5,1,1,-1,0\n257,{_OVER},{_OVER},-1,0\n9,1,1,-1,0\n",
         "2: field outside the int64 range"),
        ("5,1,1,-1,0\n229,3,3,-1,0\n", "2: r3 = 0 with 3 dividing h in "
         "CacheRecord(D=229, h_plus=3, h=3, unit_norm=-1, r3=0)"),
        ("-23,3,3,0,1\n-7,2,2,0,1\n", "2: 3^r3 does not divide h in "
         "CacheRecord(D=-7, h_plus=2, h=2, unit_norm=0, r3=1)"),
    ], ids=["last-line-without-lf", "bad-last-line-without-lf", "empty-file", "lone-lf", "crlf",
            "crlf-after-a-good-line", "bad-line-first", "bad-line-in-the-middle", "bad-line-last",
            "blank-line-last", "minus-zero", "int64-overflow-after-a-bad-line", "int64-overflow-before-a-bad-line",
            "record-fault-before-a-bad-line", "record-fault-before-an-int64-overflow",
            "record-fault-after-an-int64-overflow", "r3-zero-with-3-dividing-h",
            "3^r3-not-dividing-h"])
    def test_first_bad_line(self, tmp_path, monkeypatch, chunk, text, expected):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        path = tmp_path / "c.txt"
        path.write_bytes(text.encode("ascii"))
        if isinstance(expected, list):
            assert list(cli.cache_load(str(path))) == expected
        else:
            with pytest.raises(CacheCorruption) as info:
                cli.cache_load(str(path))
            assert str(info.value) == f"{path}:{expected}"

    def test_a_fault_after_clean_chunks(self, tmp_path, monkeypatch):
        # The D before each chunk carries over, so a descent across two
        # chunks is named; the chunks before a fault are not searched.
        monkeypatch.setattr(cli, "_CHUNK", 16)
        path = tmp_path / "c.txt"
        path.write_text("5,1,1,-1,0\n13,1,1,-1,0\n17,1,1,-1,0\n13,1,1,-1,0\n")
        with pytest.raises(CacheCorruption, match=r"c\.txt:4: records not strictly ascending$"):
            cli.cache_load(str(path))


class TestWarmPath:
    ARGS = ["indivisibility", "--m", "1", "--n", "4", "--x", "2000"]

    def test_warm_run_leaves_cache_untouched(self, tmp_path, capsys):
        cache = tmp_path / "c.txt"
        code, cold, _ = run_cli(capsys, *self.ARGS, "--cache", str(cache))
        assert code == 0
        data, before = cache.read_bytes(), cache.stat()
        code, warm, _ = run_cli(capsys, *self.ARGS, "--cache", str(cache))
        after = cache.stat()
        assert code == 0 and warm == cold
        assert cache.read_bytes() == data
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]

    def test_store_merges_record_written_during_run(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "c.txt"
        run_cli(capsys, "imaginary", "--m", "1", "--n", "4", "--x", "100", "--cache", str(cache))
        imaginary = set(cli.cache_load(str(cache)))
        runner, level = cli._EXPERIMENTS["nh-average"]

        def with_concurrent_store(*args, **kwargs):
            # Another run stores -4 after this one loaded the cache.
            cli.cache_store(str(cache), [CacheRecord(-4, 1, 1, 0, 0)])
            return runner(*args, **kwargs)

        monkeypatch.setitem(cli._EXPERIMENTS, "nh-average", (with_concurrent_store, level))
        code, _, _ = run_cli(capsys, "nh-average", "--m", "1", "--n", "4", "--x", "300",
                             "--cache", str(cache))
        assert code == 0
        stored = set(cli.cache_load(str(cache)))
        assert -4 not in imaginary
        assert imaginary | {-4, 5, 229} <= stored

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unusable_cache_path_exits_4_before_the_survey(self, tmp_path, capsys,
                                                           monkeypatch, where):
        cache = tmp_path / "d" if where == "directory" else tmp_path / "no" / "c.txt"
        if where == "directory":
            cache.mkdir()

        def never_runs(*args, **kwargs):
            raise AssertionError("the survey started")

        monkeypatch.setitem(cli._EXPERIMENTS, "nh-average", (never_runs, "nh"))
        code, out, err = run_cli(capsys, "nh-average", "--m", "1", "--n", "4", "--x", "100",
                                 "--cache", str(cache))
        assert code == 4 and out == ""
        assert f"cache error: cannot use {cache}:" in err and "Traceback" not in err
        # nothing was written: no cache file, no temporary file beside it
        assert [p.name for p in tmp_path.iterdir()] == (["d"] if where == "directory" else [])

    def test_empty_family_creates_cache_file(self, tmp_path, capsys):
        cache = tmp_path / "c.txt"
        code, _, _ = run_cli(capsys, "nh-average", "--m", "1", "--n", "4", "--x", "1",
                             "--cache", str(cache))
        assert code == 0
        assert cache.read_bytes() == b""

    @pytest.mark.parametrize("line", ["1,1,1,-1,0", "9,1,1,-1,0", "4,1,1,-1,0", "-12,1,1,0,0",
                                      "45,1,1,-1,0", "-72,1,1,0,0"])
    def test_non_fundamental_cached_d_exits_4(self, tmp_path, capsys, line):
        cache = tmp_path / "c.txt"
        lines = sorted(["-3,1,1,0,0", "229,3,3,-1,1", line], key=lambda s: int(s.split(",")[0]))
        cache.write_text("\n".join(lines) + "\n")
        d = line.split(",")[0]
        code, out, err = run_cli(capsys, *self.ARGS, "--cache", str(cache))
        assert code == 4 and out == ""
        assert f"cached D={d} is not a fundamental discriminant" in err

    def test_cached_d_beyond_sieve_bound_exits_4(self, tmp_path, capsys):
        # Refused by the parse, before the fundamental check sieves
        # [1, max |D|]: no survey computes a |D| past the survey limit of its
        # sign, so no cache it writes holds one.
        cache = tmp_path / "c.txt"
        for line in (f"{LIMIT + 1},1,1,-1,0", f"{-LIMIT_NEG - 1},1,1,0,0"):
            cache.write_text(line + "\n")
            code, out, err = run_cli(capsys, "nh-average", "--m", "1", "--n", "4", "--x", "10",
                                     "--cache", str(cache))
            assert code == 4 and out == ""
            assert f"cache corruption: {cache}:1: |D| exceeds the survey limit in" in err


    def test_torsion_totals_beyond_int64_stay_exact(self, tmp_path, capsys):
        # Valid records whose sum of 3^r3 exceeds int64: 3 * 3^39 > 2^63.
        h = 3**39
        cache = tmp_path / "c.txt"
        cache.write_text("".join(f"{d},{h},{h},-1,39\n" for d in (5, 13, 17)))
        code, out, _ = run_cli(capsys, "nh-average", "--m", "1", "--n", "4", "--x", "20",
                               "--cache", str(cache), "--format", "json")
        assert code == 0
        assert json.loads(out)["checkpoints"][0]["nh_average"] == round(float(h), 6)


SURVEY_ARGS = {
    "nh-average": ("1", "4", "0"),
    "indivisibility": ("1", "4", "0"),
    "pairs": ("1", "4", "8"),
    "lambda": ("17", "12", "12"),
    "imaginary": ("1", "4", "0"),
}


def _family_argv(name, x):
    m, n, t = SURVEY_ARGS[name]
    return [name, "--m", m, "--n", n, "--t", t, "--x", str(x)]


@pytest.mark.parametrize("name", SURVEY_ARGS)
def test_surveys_never_call_the_per_discriminant_core(capsys, monkeypatch, name):
    """The surveys get their class data from the batch alone: with
    forms._core_info raising, each still reports, the same at --jobs 1 and 2
    (the pool's workers are forked with the patch in place)."""
    def per_d(d):
        raise AssertionError(f"forms._core_info({d}) was called")

    monkeypatch.setattr(forms, "_core_info", per_d)
    outs = []
    for jobs in ("1", "2"):
        code, out, err = run_cli(capsys, *_family_argv(name, 3000), "--jobs", jobs)
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1] and outs[0].startswith("checkpoint_x,")


# Runs the CLI on argv under a 1 GiB address space and 20 s of CPU, and
# prints its exit code, its peak RSS in MB, its stdout and its stderr as
# JSON. A fresh interpreter forks it, because the peak RSS of a forked child
# counts the memory of the process it was forked from.
_LIMITED = """
import json, os, resource, subprocess, sys

def limits():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (20, 20))

proc = subprocess.Popen([sys.executable, "-m", "quadclass.cli", *sys.argv[1:]],
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=limits)
out, err = proc.stdout.read(), proc.stderr.read()
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps([proc.returncode, usage.ru_maxrss / 1024, out.decode(), err.decode()]))
"""


@pytest.mark.parametrize("x", ["past-limit", 2**30, 2**48], ids=str)
@pytest.mark.parametrize("name,t", [("nh-average", 0), ("pairs", 8), ("imaginary", 0)])
def test_survey_past_its_limit_exits_2_before_it_allocates(name, t, x):
    """A survey whose largest |D| (x, x + t or x - 1) is past the survey
    limit of its sign is refused up front, in a few tens of MB."""
    limit = LIMIT_NEG if name == "imaginary" else LIMIT
    if x == "past-limit":
        x = LIMIT_NEG + 2 if name == "imaginary" else LIMIT + 1 - t
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [name, "--x", str(x), "--m", "1", "--n", "4", "--t", str(t)]
    proc = subprocess.run([sys.executable, "-c", _LIMITED, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, peak_mb, out, err = json.loads(proc.stdout)
    assert (code, out) == (2, ""), err
    assert f"exceeds the survey limit {limit} for D {'<' if name == 'imaginary' else '>'} 0" in err
    assert peak_mb < 100


@pytest.mark.parametrize("name,t", [("nh-average", 0), ("pairs", 8), ("imaginary", 0)])
def test_survey_past_its_limit_leaves_no_cache_file(tmp_path, capsys, monkeypatch, name, t):
    """A fresh --cache path is written only after the survey, so a survey
    refused for its limit leaves neither the file nor a temporary one."""
    x = LIMIT_NEG + 2 if name == "imaginary" else LIMIT + 1 - t
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, name, "--x", str(x), "--m", "1", "--n", "4", "--t", str(t),
                             "--cache", "new.txt")
    assert (code, out) == (2, "") and "exceeds the survey limit" in err
    assert list(tmp_path.iterdir()) == []


class TestSetUpOnce:
    """A survey process sieves each squarefree cell once, and at the default
    table cap reads the survey limits without searching for them."""

    @pytest.fixture
    def windows(self, monkeypatch):
        """The (lo, hi) of every experiments._squarefree_cells call, from an
        empty kept sieve."""
        calls = []
        cells = experiments._squarefree_cells

        def counted(lo, hi, k, max_cells):
            calls.append((lo, hi))
            return cells(lo, hi, k, max_cells)

        monkeypatch.setattr(experiments, "_squarefree_cells", counted)
        monkeypatch.setattr(experiments, "_sf", bytearray(1))
        return calls

    @pytest.mark.parametrize("name,reach", [("pairs", 3005), ("imaginary", 2999)])
    def test_cold_and_warm_surveys_sieve_once(self, tmp_path, capsys, monkeypatch, windows,
                                              name, reach):
        # The largest |D| of each survey at x = 3000 (D + t = 3005, D = -2999)
        # is fundamental, so the warm run's cache check sieves all of it.
        cache = tmp_path / "c.txt"
        argv = [*_family_argv(name, 3000), "--cache", str(cache)]
        code, cold, _ = run_cli(capsys, *argv)
        assert code == 0 and windows == [(1, reach)]
        assert max(abs(int(line.split(",")[0])) for line in cache.read_text().split()) == reach
        monkeypatch.setattr(experiments, "_sf", bytearray(1))
        windows.clear()
        code, warm, _ = run_cli(capsys, *argv)
        assert code == 0 and warm == cold and windows == [(1, reach)]

    def test_warm_survey_past_its_cache_sieves_the_rest(self, tmp_path, capsys, monkeypatch,
                                                        windows):
        # nh-average at x = 3000 reaches 2997 = 3^4 * 37, but its cache stops
        # at 2993: the warm run sieves 2994..2997 alone.
        cache = tmp_path / "c.txt"
        argv = [*_family_argv("nh-average", 3000), "--cache", str(cache)]
        code, cold, _ = run_cli(capsys, *argv)
        assert code == 0 and windows == [(1, 2997)]
        monkeypatch.setattr(experiments, "_sf", bytearray(1))
        windows.clear()
        code, warm, _ = run_cli(capsys, *argv)
        assert code == 0 and warm == cold and windows == [(1, 2993), (2994, 2997)]

    _NO_SEARCH = """
import contextlib, io, json, sys
from quadclass import cli, experiments

def search(cap):
    raise AssertionError("experiments._limits was called")

experiments._limits = search
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.run(argv))
print(json.dumps(codes))
"""

    def test_no_limit_search_at_the_default_cap(self, tmp_path):
        """A fresh process, with experiments._limits failing, runs every survey
        cold and then warm, checking its cache, and refuses two past their
        limits: exit 0 for each run, 2 for each refusal (5 had it searched)."""
        argvs = [[*_family_argv(name, 3000), "--cache", str(tmp_path / f"{name}.txt")]
                 for name in SURVEY_ARGS for _ in ("cold", "warm")]
        argvs += [["nh-average", "--x", str(LIMIT + 1), "--m", "1", "--n", "4"],
                  ["imaginary", "--x", str(LIMIT_NEG + 2), "--m", "1", "--n", "4"]]
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", self._NO_SEARCH, json.dumps(argvs)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0] * (2 * len(SURVEY_ARGS)) + [2, 2]

    @pytest.mark.parametrize("name,x,largest,limit,sign", [
        ("nh-average", LIMIT + 1, LIMIT + 1, LIMIT, ">"),
        ("imaginary", LIMIT_NEG + 2, LIMIT_NEG + 1, LIMIT_NEG, "<")])
    def test_survey_past_the_limit_exits_2(self, capsys, name, x, largest, limit, sign):
        code, out, err = run_cli(capsys, name, "--x", str(x), "--m", "1", "--n", "4")
        assert (code, out) == (2, "")
        assert err == (f"invalid arguments: |D| = {largest} exceeds the survey limit {limit} "
                       f"for D {sign} 0 (a divisor table within 134217728 bytes)\n")


class TestColumnarPath:
    """Class data reaches the surveys as ClassTable columns: a warm run builds
    no per-record ClassGroupInfo, and every kind of cache gives the same bytes."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The ClassGroupInfo objects constructed in this process. A NamedTuple
        is made by its __new__; its __init__ is tuple's and sees nothing."""
        calls = []
        new = forms.ClassGroupInfo.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(forms.ClassGroupInfo, "__new__", counting)
        return calls

    def test_fixture_counts_constructions(self, tmp_path, capsys, built):
        # A cold lambda run builds the infos of its certificates, and a
        # classgroup query builds one.
        argv = _family_argv("lambda", 3000) + ["--cache", str(tmp_path / "c.txt")]
        assert run_cli(capsys, *argv)[0] == 0
        assert len(built) > 0
        built.clear()
        assert run_cli(capsys, "classgroup", "--d", "229")[0] == 0
        assert len(built) == 1 and built[0][1:] == (3, 3, -1, 3, 1)

    @pytest.mark.parametrize("name", ["nh-average", "indivisibility", "pairs", "imaginary"])
    def test_warm_survey_builds_no_class_group_info(self, tmp_path, capsys, built, name):
        argv = _family_argv(name, 3000) + ["--cache", str(tmp_path / "c.txt")]
        code, cold, _ = run_cli(capsys, *argv)
        assert code == 0
        built.clear()
        code, warm, _ = run_cli(capsys, *argv)
        assert code == 0 and warm == cold
        assert built == []

    def test_warm_lambda_builds_at_most_three_per_certificate(self, tmp_path, capsys, built):
        cache = str(tmp_path / "c.txt")
        # Records the lambda run never reads, which a per-record load would build.
        assert run_cli(capsys, *_family_argv("imaginary", 3000), "--cache", cache)[0] == 0
        argv = _family_argv("lambda", 3000) + ["--cache", cache]
        assert run_cli(capsys, *argv)[0] == 0
        built.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        certificates = len(lines) - 1 - lines.index(",".join(cli.CERT_COLUMNS))
        assert certificates > 0
        assert 0 < len(built) <= 3 * certificates

    @pytest.mark.parametrize("name", SURVEY_ARGS)
    def test_cache_kinds_give_identical_bytes(self, tmp_path, capsys, name):
        x = 1500
        runner, level = cli._EXPERIMENTS[name]
        m, n, t = map(int, SURVEY_ARGS[name])
        family = families.validate(m, n, t, level)

        def render(**kwargs):
            result = runner(x, family, **kwargs)
            certs, report = result if name == "lambda" else (None, result)
            return [cli.render_report(report, fmt, certs) for fmt in ("csv", "json")]

        expected = render()
        for jobs in (1, 2):
            table = experiments.ClassTable()
            for cache in (None, table, table):  # cold, then warm
                assert render(jobs=jobs, cache=cache) == expected
            path = tmp_path / f"c{jobs}.txt"
            for _ in ("cold", "warm"):
                for i, fmt in enumerate(("csv", "json")):
                    code, out, _ = run_cli(capsys, *_family_argv(name, x), "--jobs", str(jobs),
                                           "--format", fmt, "--cache", str(path))
                    assert code == 0 and out == expected[i]
            # The file format: sorted by D, LF endings, canonical integers.
            assert path.read_bytes() == "".join(
                f"{d},{info.h_plus},{info.h},{info.unit_norm},{info.r3}\n"
                for d, info in sorted(table.items())).encode("ascii")


class TestInvariantExit:
    def test_runtime_error_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "kronecker", lambda a, n: 1)
        code, out, err = run_cli(capsys, "lambda", "--m", "17", "--n", "12", "--t", "12",
                                 "--x", "300")
        assert code == 5 and out == ""
        assert err == ("invariant violated: Legendre symbol of certified D=5 is not -1; "
                       "family congruences are broken\n")

    def test_assertion_error_exits_5(self, capsys, monkeypatch):
        # unit norm +1 for every D of the batch
        monkeypatch.setattr(batch, "_unit_norms", lambda d, *_: np.ones_like(d))
        code, out, err = run_cli(capsys, "nh-average", "--m", "1", "--n", "4", "--x", "300")
        assert code == 5 and out == ""
        assert err == "invariant violated: unit norm +1 with odd narrow class number for D=5\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_torsion_count_not_power_of_three_exits_5(self, capsys, monkeypatch, jobs):
        # One cubic field too many at D = 229 (r3 = 1) gives 2 * 2 + 1 = 5.
        # The pool workers read the count from the table they are handed.
        counts = batch._cubic_counts

        def broken(x):
            n = counts(x)
            n[229] += 1
            return n

        monkeypatch.setattr(batch, "_cubic_counts", broken)
        with pytest.raises(AssertionError, match="^3-torsion count 5 is not a power of 3 "
                                                 "for D=229$"):
            experiments.compute_class_infos([5, 229, 257])
        code, out, err = run_cli(capsys, "nh-average", "--m", "1", "--n", "4", "--x", "300",
                                 "--jobs", jobs)
        assert code == 5 and out == ""
        assert err == "invariant violated: 3-torsion count 5 is not a power of 3 for D=229\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_imaginary_torsion_count_not_power_of_three_exits_5(self, capsys, monkeypatch,
                                                                jobs):
        # Two cubic fields too many at D = -299 (h = 8, r3 = 0) give 2 * 2 + 1 = 5.
        counts = batch._neg_cubic_counts

        def extra(x):
            n = counts(x)
            n[299] += 2
            return n

        monkeypatch.setattr(batch, "_neg_cubic_counts", extra)
        code, out, err = run_cli(capsys, "imaginary", "--m", "1", "--n", "4", "--x", "300",
                                 "--jobs", jobs)
        assert code == 5 and out == ""
        assert err == "invariant violated: 3-torsion count 5 is not a power of 3 for D=-299\n"

    def test_real_r3_zero_with_3_dividing_h_exits_5(self, capsys, monkeypatch):
        # No cubic field at D = 229 gives r3 = 0, though cycles give h = 3.
        counts = batch._cubic_counts

        def broken(x):
            n = counts(x)
            n[229] = 0
            return n

        monkeypatch.setattr(batch, "_cubic_counts", broken)
        code, out, err = run_cli(capsys, "nh-average", "--m", "1", "--n", "4", "--x", "300")
        assert code == 5 and out == ""
        assert err == "invariant violated: 3-torsion count 1 does not match h=3 for D=229\n"

    def test_imaginary_r3_zero_with_3_dividing_h_exits_5(self, capsys, monkeypatch):
        # No cubic field at D = -23 gives r3 = 0, though the count of reduced
        # forms gives h = 3.
        counts = batch._neg_cubic_counts

        def dropped(x):
            n = counts(x)
            n[23] = 0
            return n

        monkeypatch.setattr(batch, "_neg_cubic_counts", dropped)
        code, out, err = run_cli(capsys, "imaginary", "--m", "1", "--n", "4", "--x", "300")
        assert code == 5 and out == ""
        assert err == "invariant violated: 3-torsion count 1 does not match h=3 for D=-23\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_missing_divisor_exits_5(self, capsys, monkeypatch, jobs):
        # The bulk table loses the divisor 4 of n = 44. The first D it breaks
        # is 177: the divisor is below its b = 1 window, whose upper end
        # mirrors the lower one, so the window lists the non-reduced form
        # (11, 1, -4), and the rho^2 images of D = 177 are no longer its forms.
        table = batch.divisor_table
        monkeypatch.setattr(batch, "divisor_table",
                            lambda limit: without_divisor(table(limit), 44, 4))
        code, out, err = run_cli(capsys, "nh-average", "--m", "1", "--n", "4", "--x", "300",
                                 "--jobs", jobs)
        assert code == 5 and out == ""
        assert err == ("invariant violated: a rho^2 image is missing from the reduced forms "
                       "of D=177\n")

    def test_broken_pool_is_not_an_invariant(self, monkeypatch):
        def broken(*args, **kwargs):
            raise BrokenProcessPool("a worker process died")

        monkeypatch.setitem(cli._EXPERIMENTS, "nh-average", (broken, families.LEVEL_NH))
        with pytest.raises(BrokenProcessPool):
            cli.run(["nh-average", "--m", "1", "--n", "4", "--x", "300"])
