import csv
import dataclasses
import io
import json

import pytest

from packbounds import __version__, cli, verify
from packbounds.cli import bundled_records_path, main
from packbounds.density import simplex_density
from packbounds.streams import DEFAULT_SEED, spawn_key


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bounds


def test_bounds_json_schema_and_roundtrip(capsys, tmp_path):
    out = tmp_path / "bounds.json"
    code, _, _ = run_cli(
        capsys, "bounds", "--dmin", "8", "--dmax", "9",
        "--samples", "20000", "--seed", "7", "--format", "json",
        "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    doc = json.loads(text)
    assert set(doc) == {"meta", "rows"}
    assert set(doc["meta"]) == {"seed", "n", "version"}
    assert doc["meta"]["seed"] == 7 and doc["meta"]["n"] == 20000
    assert [r["d"] for r in doc["rows"]] == [8, 9]
    row = doc["rows"][0]
    assert set(row) == {
        "d", "sigma", "sigma_hat", "lambda", "volume_lower", "surface_lower",
        "daniels", "kl", "ball_lower",
    }
    assert set(row["sigma"]) == {"value", "stderr"}
    assert row["sigma_hat"]["value"] < row["sigma"]["value"]
    # byte-identical round trip
    assert json.dumps(doc, indent=2) + "\n" == text


def test_bounds_csv_and_flag(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--dmin", "8", "--dmax", "8",
        "--samples", "50000", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("d,sigma,sigma_stderr,")
    assert "daniels_asymptotic" in lines[0]
    assert lines[1].endswith(",yes")  # improvement flag at d = 8


def test_bounds_rejects_bad_range(capsys):
    # each usage error is one "error: ..." line on stderr
    code, _, err = run_cli(capsys, "bounds", "--dmin", "2", "--dmax", "8")
    assert code == 2
    assert err == (
        "error: bounds requires d >= 4 and dmin <= dmax <= 64; got dmin = 2, dmax = 8\n"
    )
    code, _, _ = run_cli(capsys, "bounds", "--dmin", "8", "--dmax", "7")
    assert code == 2
    code, _, err = run_cli(
        capsys, "bounds", "--dmin", "8", "--dmax", "8", "--samples", "100"
    )
    assert code == 2
    assert err == "error: bounds requires at least 1e4 samples\n"


def test_bounds_markdown_matches_csv(capsys):
    args = ("bounds", "--dmin", "8", "--dmax", "9", "--samples", "10000")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    header, *rows = list(csv.reader(io.StringIO(csv_out)))
    lines = out.split("\n")
    assert lines[0] == (f"Ball packing density bounds (n=10000, seed={DEFAULT_SEED}, "
                        f"version {__version__})")
    assert lines[1] == ""
    assert len(header) == 13 and lines[2] == "| " + " | ".join(header) + " |"
    assert lines[3] == "|" + "|".join(["---"] * 13) + "|"
    assert [row[0] for row in rows] == ["8", "9"]
    assert [line[2:-2].split(" | ") for line in lines[4:6]] == rows
    assert lines[6] == ""
    assert lines[7].startswith("daniels_asymptotic and kl_asymptotic are asymptotic reference")
    assert lines[7].endswith("three standard errors of the paired gap.")
    assert lines[8:] == [""]


def test_bounds_deterministic(capsys):
    args = ("bounds", "--dmin", "8", "--dmax", "8", "--samples", "20000",
            "--seed", "5", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# ---------------------------------------------------------------------------
# verify


def test_verify_subset(capsys):
    code, out, err = run_cli(capsys, "verify", "floor-recursion", "reach-bound")
    assert code == 0
    doc = json.loads(out)
    assert [c["name"] for c in doc["checks"]] == ["floor-recursion", "reach-bound"]
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert "floor-recursion" in err


def test_verify_threshold_semantics(capsys):
    code, out, _ = run_cli(capsys, "verify", "pair-separation", "--d", "7")
    assert code == 0
    doc = json.loads(out)
    check = doc["checks"][0]
    assert check["status"] == "pass"
    assert check["witness"]["corner_value"] > 4.0
    assert "expected-outside-domain" in check["witness"]["notes"]


def test_verify_grid_reaches_tilt_extremum_alone(capsys):
    # --grid sets tilt-extremum's grid; the other grids and sweeps keep their sizes
    code, out, _ = run_cli(capsys, "verify", "tilt-extremum", "pair-separation",
                           "radius-ratio", "--grid", "2000")
    assert code == 0
    doc = json.loads(out)
    assert [c["witness"]["grid"] for c in doc["checks"]] == [2000, 200, 1000]
    code, out, err = run_cli(capsys, "verify", "tilt-extremum", "--grid", "999")
    assert code == 2
    assert out == ""
    assert err == "error: grid must be >= 1e3\n"


def test_verify_unknown_name(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus-name")
    assert code == 2
    assert err.startswith("error: unknown check 'bogus-name'; known checks: chain-inflation, ")


def test_verify_all_defaults_pass(capsys):
    # the whole registry through the CLI
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 10
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_rejects_large_d(capsys):
    # the wedge's stratum edges overflow a double from d = 1031 on
    code, out, err = run_cli(capsys, "verify", "profile-monotone", "--d", "1100")
    assert code == 2
    assert out == ""
    assert err == "error: verify requires d >= 4 and d <= 64; got d = 1100\n"


def test_verify_checks_every_d_range_before_running(capsys, tmp_path, monkeypatch):
    # two of the ten checks are stated for d >= 8 only: --d 6 names them and
    # runs no check at all, so no partial report is written
    ran = []
    for name in verify.REGISTRY:
        monkeypatch.setitem(verify.REGISTRY, name, lambda name=name, **kw: ran.append(name))
    out = tmp_path / "verify.json"
    code, stdout, err = run_cli(capsys, "verify", "--d", "6", "--out", str(out))
    assert code == 2
    assert ran == [] and stdout == "" and not out.exists()
    assert err == ("error: d = 6 is outside the range of truncated-max (d >= 8), "
                   "square-cap-monotone (d >= 8)\n")
    monkeypatch.undo()
    code, stdout, _ = run_cli(capsys, "verify", "tilt-extremum", "--d", "6")
    assert code == 0
    assert json.loads(stdout)["checks"][0]["status"] == "pass"


def assert_one_failure(code, out, err, name):
    """A violated inequality is one fail record and one stderr line, with exit 1."""
    (check,) = json.loads(out)["checks"]
    assert (code, check["name"], check["status"]) == (1, name, "fail")
    assert err == f"[        fail] {name}: {check['summary']}\n"
    return check


def test_verify_closed_form_violation_fails(capsys, monkeypatch):
    # a pair bound of 4.1 at the corner breaks the d >= 8 claim that it is <= 4
    monkeypatch.setattr(verify.fm, "pair_gap_max", lambda d: 4.1)
    check = assert_one_failure(*run_cli(capsys, "verify", "pair-separation"),
                               "pair-separation")
    assert check["summary"] == "corner value 4.100000000 > 4 for d=8"
    assert check["witness"]["corner_value"] == 4.1


def test_verify_density_violation_fails(capsys, monkeypatch):
    # the first truncated wedge lifted 1e-3 above the wedge bound, far beyond its band
    oracle = verify.quadrature_density
    seen = []

    def lifted(cfg):
        seen.append(oracle(cfg))
        if len(seen) == 2:  # the bound itself comes first
            return dataclasses.replace(seen[1], value=seen[0].value + 1e-3)
        return seen[-1]

    monkeypatch.setattr(verify, "quadrature_density", lifted)
    check = assert_one_failure(*run_cli(capsys, "verify", "truncated-max"), "truncated-max")
    assert check["summary"].startswith("type-I trial 0 at h=")
    assert " exceeds the bound by 1.000e-03 > error " in check["summary"]
    assert check["witness"]["worst"]["excess"] == pytest.approx(1e-3, rel=1e-9)


def test_verify_inconclusive_exit_code(capsys, monkeypatch):
    # an oracle whose stated error exceeds chain-inflation's separations
    # (0.167 and 0.012) leaves the strict claim undecided: exit 3
    oracle = verify.quadrature_density
    monkeypatch.setattr(verify, "quadrature_density",
                        lambda cfg: dataclasses.replace(oracle(cfg), stderr=0.1))
    code, out, _ = run_cli(capsys, "verify", "chain-inflation")
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "inconclusive"
    assert check["summary"].startswith("uniform-1.1 separation 1.66")
    assert check["summary"].endswith("within the error 2.000e-01")
    assert [c["band"] for c in check["witness"]["cases"]] == [0.2, 0.2]
    assert code == 3


# ---------------------------------------------------------------------------
# records


def test_records_bundled(capsys):
    code, out, _ = run_cli(capsys, "records", "--samples", "30000")
    assert code == 0
    assert "consistent" in out
    assert "context" in out
    assert "inconsistent" not in out.replace("| consistent", "")


def test_records_empty_file(capsys, tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    code, out, _ = run_cli(capsys, "records", str(f))
    assert code == 0


def test_records_malformed_density(capsys, tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("d,density,name,source\n3,abc,thing,src\n")
    code, _, err = run_cli(capsys, "records", str(f))
    assert code == 2
    assert err == "error: malformed records file: line 2: bad density 'abc'\n"


@pytest.mark.parametrize(
    "rows,message",
    [
        ("3,0.5,thing\n", "line 2: expected 4 fields, got 3"),
        ("x,0.5,thing,src\n", "line 2: bad dimension 'x'"),
        ("3,1.5,thing,src\n", "line 2: density 1.5 outside (0, 1]"),
        ("3,0,thing,src\n", "line 2: density 0.0 outside (0, 1]"),
        ("1,0.5,thing,src\n", "line 2: dimension 1 below 2"),
        ("3,0.5,thing,src\n3,0.6,thing,other\n", "line 3: duplicate row for (3, 'thing')"),
        # blank rows are skipped, and still counted in the line numbers
        ("\n , ,,\n3,abc,thing,src\n", "line 4: bad density 'abc'"),
    ],
    ids=["fields", "dimension", "density-above", "density-zero", "dimension-below",
         "duplicate", "blank-rows"],
)
def test_records_malformed_rows(capsys, tmp_path, rows, message):
    f = tmp_path / "bad.csv"
    f.write_text("d,density,name,source\n" + rows)
    code, out, err = run_cli(capsys, "records", str(f))
    assert (code, out) == (2, "")
    assert err == f"error: malformed records file: {message}\n"


def test_records_unreadable_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "records", str(tmp_path / "missing.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {tmp_path / 'missing.csv'}: ")


def test_records_bad_header(capsys, tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("dim,rho,name,source\n")
    code, _, err = run_cli(capsys, "records", str(f))
    assert code == 2
    assert "line 1" in err


def test_records_accept_byte_order_mark(capsys, tmp_path):
    # spreadsheet exports start the file with U+FEFF, which used to break the header
    f = tmp_path / "exported.csv"
    f.write_text("d,density,name,source\n2,0.9068996821,hexagonal,Thue\n", encoding="utf-8-sig")
    code, out, err = run_cli(capsys, "records", str(f), "--samples", "10000")
    assert (code, err) == (0, "")
    assert "hexagonal" in out


def test_records_inconsistent_flagged(capsys, tmp_path):
    f = tmp_path / "impossible.csv"
    f.write_text("d,density,name,source\n8,0.9,too dense to exist,made up\n")
    code, out, _ = run_cli(capsys, "records", str(f), "--samples", "30000")
    assert code == 1
    assert "inconsistent" in out


def test_records_outside_range_listed_without_bound(capsys, tmp_path):
    f = tmp_path / "far.csv"
    f.write_text("d,density,name,source\n24,0.001929,high-dimensional packing,context\n")
    code, out, _ = run_cli(
        capsys, "records", str(f), "--dmin", "2", "--dmax", "9", "--samples", "20000"
    )
    assert code == 0
    assert "24" in out


def test_records_rejects_large_dmax(capsys, tmp_path):
    f = tmp_path / "big.csv"
    f.write_text("d,density,name,source\n1100,0.001,big,made up\n")
    code, out, err = run_cli(capsys, "records", str(f), "--dmax", "2000")
    assert code == 2
    assert out == ""
    assert err == (
        "error: records requires d >= 2 and dmin <= dmax <= 64; got dmin = 2, dmax = 2000\n"
    )


def test_records_bound_kind_follows_proven_range(capsys, tmp_path):
    # sigma_hat is a proven bound only for d >= 8; below that sigma is used
    f = tmp_path / "two.csv"
    f.write_text("d,density,name,source\n6,0.3,six,made up\n8,0.2,eight,made up\n")
    code, out, _ = run_cli(
        capsys, "records", str(f), "--format", "csv", "--samples", "20000"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    kinds = {int(row["d"]): row["bound_kind"] for row in rows}
    assert kinds == {6: "sigma", 8: "sigma_hat"}


def test_records_bound_is_the_bounds_row(capsys, tmp_path):
    # records takes sigma_hat from the bounds table's own row for d >= 8, and
    # below that the simplex density, both keyed by spawn_key(seed, d)
    f = tmp_path / "dims.csv"
    f.write_text("d,density,name,source\n"
                 + "".join(f"{d},0.01,dim {d},made up\n" for d in (3, 5, 8, 9, 10)))
    seed, n = 41, 20000
    _, out, _ = run_cli(capsys, "records", str(f), "--format", "csv",
                        "--seed", str(seed), "--samples", str(n))
    printed = {int(row["d"]): row["bound"] for row in csv.DictReader(io.StringIO(out))}
    _, out, _ = run_cli(capsys, "bounds", "--dmin", "8", "--dmax", "10", "--format", "json",
                        "--seed", str(seed), "--samples", str(n))
    table = {row["d"]: row["sigma_hat"]["value"] for row in json.loads(out)["rows"]}
    assert {d: float(printed[d]) for d in (8, 9, 10)} == table
    for d in (3, 5):
        est = simplex_density(d, n, spawn_key(seed, d))
        assert printed[d] == format(est.value, ".9g")
    # plot-data's sigma column is the same estimate, so one (seed, n) prints
    # one sigma_d whichever command prints it
    _, out, _ = run_cli(capsys, "plot-data", "sigma_vs_d", "--dmin", "3", "--dmax", "5",
                        "--seed", str(seed), "--samples", str(n))
    sigma = {int(line.split("\t")[0]): line.split("\t")[1]
             for line in out.strip().split("\n")[1:]}
    assert {d: sigma[d] for d in (3, 5)} == {d: printed[d] for d in (3, 5)}


def test_bundled_records_file_exists():
    path = bundled_records_path()
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "d,density,name,source"


# ---------------------------------------------------------------------------
# plot data


def test_plot_gap_vs_d(capsys):
    code, out, _ = run_cli(
        capsys, "plot-data", "gap_vs_d", "--dmin", "8", "--dmax", "9",
        "--samples", "30000",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "#d\tsigma\tsigma_hat\tgap\tgap_stderr"
    assert len(lines) == 3
    assert "\r" not in out


def test_plot_g_ratio(capsys):
    code, out, _ = run_cli(capsys, "plot-data", "g_ratio", "--d", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "#h\tg0\tg\tratio"
    assert len(lines) == 201
    first = lines[1].split("\t")
    assert float(first[3]) == pytest.approx(4.0 / 3.0, abs=1e-8)


def test_plot_dlim_profile(capsys):
    code, out, _ = run_cli(
        capsys, "plot-data", "dlim_profile", "--d", "8", "--samples", "30000"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "#r\testimate\tstderr\tnonincreasing"
    assert all(line.split("\t")[3] == "1" for line in lines[1:])


@pytest.mark.parametrize("kind", ["dlim_profile", "g_ratio"])
@pytest.mark.parametrize("d", ["0", "3"])
def test_plot_rejects_small_d(capsys, kind, d):
    # --d 0 is a dimension like any other, not a request for the default
    code, out, err = run_cli(capsys, "plot-data", kind, "--d", d, "--samples", "2000")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {kind} requires d >= 4")


def test_plot_gap_vs_d_rejects_large_d(capsys):
    code, out, err = run_cli(capsys, "plot-data", "gap_vs_d", "--dmin", "1100", "--dmax", "1100")
    assert code == 2
    assert out == ""
    assert err == (
        "error: gap_vs_d requires d >= 4 and dmin <= dmax <= 64; got dmin = 1100, dmax = 1100\n"
    )


def test_plot_sigma_vs_d(capsys):
    code, out, _ = run_cli(
        capsys, "plot-data", "sigma_vs_d", "--dmin", "4", "--dmax", "5",
        "--samples", "20000",
    )
    assert code == 0
    assert out.startswith("#d\tsigma\t")


def test_plot_unknown_kind():
    with pytest.raises(SystemExit) as exc:
        main(["plot-data", "histogram"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# --seed and --out


EVERY_COMMAND = pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--dmin", "8", "--dmax", "8", "--samples", "10000"],
        ["verify", "floor-recursion"],
        ["records", "--dmax", "3", "--samples", "10000"],
        ["plot-data", "dlim_profile", "--samples", "10000"],
    ],
    ids=lambda argv: argv[0],
)


def forbid_work(monkeypatch):
    """Make every estimate and check the commands run raise if called."""
    def never(*args, **kwargs):
        raise AssertionError("computed before the arguments were checked")

    for name in ("improvement_gap", "limiting_density_profile", "run_checks", "simplex_density"):
        monkeypatch.setattr(cli, name, never)


@EVERY_COMMAND
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_u64_is_a_usage_error(capsys, monkeypatch, argv, seed):
    # streams keep a seed's low 64 bits, so 2^64 + 1 would have drawn seed 1's numbers
    forbid_work(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "--seed", str(seed))
    assert (code, out) == (2, "")
    assert err == f"error: seed must be in [0, 2^64), got {seed}\n"


def test_largest_seed_is_accepted(capsys):
    seed = 2**64 - 1
    code, out, _ = run_cli(capsys, "bounds", "--dmin", "8", "--dmax", "8", "--samples", "10000",
                           "--format", "json", "--seed", str(seed))
    assert code == 0
    assert json.loads(out)["meta"]["seed"] == seed


@EVERY_COMMAND
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    # a missing directory is found before any work: no estimate or check runs
    forbid_work(monkeypatch)
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith(f"error: cannot write {path}: ")


def test_out_that_cannot_be_opened_is_a_usage_error(capsys, tmp_path):
    # the directory exists, so the write itself fails and _emit reports it
    code, out, err = run_cli(capsys, "plot-data", "g_ratio", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {tmp_path}: ")
