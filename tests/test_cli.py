import json
import random
import re

import pytest

from quadclass import cli, experiments, families
from quadclass.cli import CacheCorruption, CacheRecord


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
        rng = random.Random(47)
        ds = rng.sample(range(2, 10**6), n)
        recs = []
        for d in ds:
            recs.append(CacheRecord(d, 4, 2, 1, 1))
        return recs

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.txt"
        recs = self._records()
        cli.cache_store(str(path), recs)
        loaded = cli.cache_load(str(path))
        assert loaded == {r.D: r for r in recs}

    def test_file_format_is_canonical(self, tmp_path):
        path = tmp_path / "cache.txt"
        cli.cache_store(str(path), [CacheRecord(229, 3, 3, -1, 1), CacheRecord(-23, 3, 3, 0, 1)])
        raw = path.read_bytes()
        assert raw == b"-23,3,3,0,1\n229,3,3,-1,1\n"  # ascending, LF, no padding

    def test_known_line_loads(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("229,3,3,-1,1\n")
        assert cli.cache_load(str(path))[229] == CacheRecord(229, 3, 3, -1, 1)

    def test_invariant_violation_rejected(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("12,2,1,1,1\n")  # 3^1 > h_plus = 2
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
        infos = {d: cli._info_of(r) for d, r in recs.items()}
        fresh = experiments.compute_class_infos(list(recs))
        assert infos == fresh

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
