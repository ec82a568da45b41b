"""Exit codes, JSON shape, caching, and determinism of the command line."""

import json
import pathlib
import subprocess
import sys

import pytest

from pgf import report as rp
from pgf import structure as st
from pgf.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


# -- invariants --------------------------------------------------------------


def test_invariants_square_type_group(capsys):
    code, d, _ = run_json(capsys, ["invariants", "hmod:p=3,m=1"])
    assert code == 0
    assert d["schema"] == 1
    assert d["order"] == 243
    assert d["class"] == 3
    assert d["conjugate_type"] == [1, 9]
    assert d["center_order"] == 9
    assert d["derived_order"] == 27
    assert d["gamma3_order"] == 9
    assert d["spec"] == "hmod:p=3,m=1"


def test_invariants_unitriangular(capsys):
    code, d, _ = run_json(capsys, ["invariants", "u3:p=3,m=1"])
    assert code == 0
    assert (d["order"], d["class"], d["conjugate_type"]) == (27, 2, [1, 3])


def test_invariants_even_characteristic_rejected(capsys):
    code, out, err = run(capsys, ["invariants", "hmod:p=2,m=1"])
    assert code == 2
    assert out == ""
    assert "p must be odd" in err


def test_invariants_cap_exit(capsys):
    code, _, err = run(capsys, ["invariants", "hmod:p=3,m=3"])
    assert code == 3
    assert "cap" in err


def test_invariants_cap_applies_to_the_hmod_chart(capsys):
    # the build enumerates hmod's 11^5 elements, within the cap, and not
    # hmat's 11^6, beyond it
    code, d, _ = run_json(capsys, ["invariants", "hmod:p=11,m=1"])
    assert code == 0
    assert (d["order"], d["class"], d["conjugate_type"]) == (11**5, 3, [1, 121])
    assert (d["center_order"], d["derived_order"], d["gamma3_order"]) == (121, 1331, 121)


def test_bad_spec_exit(capsys):
    code, _, err = run(capsys, ["invariants", "hmod:3,1"])
    assert code == 2


@pytest.mark.parametrize("flag", [["--seed", "5"]], ids=["seed"])
def test_invariants_rejects_unused_flags(capsys, tmp_path, monkeypatch, flag):
    # the invariants draw no random numbers, so a seed would do nothing
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "u3:p=3,m=1", *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "hmod:p=3,m=1", "everything"])
    assert exc.value.code == 2


# -- verify ------------------------------------------------------------------


def test_verify_all_passes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, d, _ = run_json(capsys, ["verify", "hmod:p=3,m=1", "all"])
    assert code == 0
    names = [c["name"] for c in d["checks"]]
    assert any(n.startswith("a2:") for n in names)
    assert any(n.startswith("structural:") for n in names)
    assert "presentation:kappa_relations" in names
    assert "presentation:frame_independence" in names
    assert all(c["passed"] for c in d["checks"])
    # parameter file lands next to the caller
    files = list(tmp_path.glob("params-*.json"))
    assert len(files) == 1
    params = json.loads(files[0].read_text())
    assert params["spec"] == "hmod:p=3,m=1"
    assert "lambda" in params["params"]


@pytest.mark.parametrize("spec,frames", [("hmod:p=3,m=1", 3), ("hmod:p=3,m=2", 2)])
def test_verify_all_extracts_each_frame_once(capsys, tmp_path, monkeypatch, spec, frames):
    # the coordinate frame, the central shift and, at m = 1, the generic
    # frame: one parameter extraction each
    calls = []
    extract = st.extract_presentation_params
    monkeypatch.setattr(st, "extract_presentation_params",
                        lambda *args, **kw: calls.append(1) or extract(*args, **kw))
    monkeypatch.chdir(tmp_path)
    code, d, _ = run_json(capsys, ["verify", spec, "all"])
    assert code == 0
    assert len(calls) == frames
    by_name = {c["name"]: c for c in d["checks"]}
    assert by_name["presentation:frame_independence"]["witness"] == {
        "frames_compared": frames - 1, "mismatched": {}}


@pytest.mark.parametrize("flag", [["--seed", "5"]], ids=["seed"])
def test_verify_rejects_unused_flags(capsys, tmp_path, monkeypatch, flag):
    # the central shift is fixed at z_1, so no check draws a random number
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "hmod:p=3,m=1", "all", *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_class2_group_fails_profile(capsys):
    code, d, _ = run_json(capsys, ["verify", "u3:p=3,m=1", "a2"])
    assert code == 1
    failed = {c["name"]: c for c in d["checks"] if not c["passed"]}
    assert "a2:class_is_3" in failed
    assert failed["a2:class_is_3"]["witness"]


def test_verify_skips_dependent_suites_on_bad_profile(capsys):
    code, d, _ = run_json(capsys, ["verify", "u3:p=3,m=1", "all"])
    assert code == 1
    names = {c["name"]: c for c in d["checks"]}
    assert not names["structural:skipped"]["passed"]
    assert names["structural:skipped"]["witness"]["reason"]
    assert not names["presentation:skipped"]["passed"]


def test_verify_structural_alone(capsys):
    code, d, _ = run_json(capsys, ["verify", "quint:p=3,m=1", "structural"])
    assert code == 0
    assert all(c["name"].startswith("structural:") for c in d["checks"])


# -- isoclinic ---------------------------------------------------------------


def test_isoclinic_direct_product(capsys):
    code, d, _ = run_json(capsys, ["isoclinic", "u3:p=3,m=1", "xab:u3:p=3,m=1,k=1"])
    assert code == 0
    by_name = {c["name"]: c for c in d["checks"]}
    assert by_name["isoclinic"]["passed"]
    assert by_name["witness_reverifies"]["passed"]
    assert by_name["conjugate_types_agree"]["passed"]
    blob = by_name["isoclinic"]["witness"]
    assert blob["witness"]["phi"] is not None
    assert blob["partner_summary"]["order"] == 81


def test_isoclinic_refuted(capsys):
    code, d, _ = run_json(capsys, ["isoclinic", "u3:p=3,m=1", "hmod:p=3,m=1"])
    assert code == 1
    blob = d["checks"][0]["witness"]
    assert blob["outcome"] == "refuted"
    assert "9 vs 27" in blob["reason"]


def test_isoclinic_self_gives_identity_witness(capsys):
    code, d, _ = run_json(capsys, ["isoclinic", "hmod:p=3,m=1", "hmod:p=3,m=1"])
    assert code == 0
    phi = d["checks"][0]["witness"]["witness"]["phi"]
    assert phi == list(range(27))


@pytest.mark.parametrize("flag", [["--cache-dir", "somewhere"], ["--seed", "5"]],
                         ids=["cache-dir", "seed"])
def test_isoclinic_rejects_unused_flags(capsys, tmp_path, monkeypatch, flag):
    # a decision is neither cached nor sampled, so these flags would do nothing
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["isoclinic", "u3:p=3,m=1", "xab:u3:p=3,m=1,k=1", *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# -- kappa -------------------------------------------------------------------


def test_kappa_prime_field(capsys):
    code, d, _ = run_json(capsys, ["kappa", "3", "1"])
    assert code == 0
    assert d["kappa"] == [[[1]]]
    assert d["modulus"] == [0, 1]


def test_kappa_degree_two(capsys):
    code, d, _ = run_json(capsys, ["kappa", "3", "2"])
    assert code == 0
    assert d["kappa"][1][1] == [2, 0]


def test_kappa_explicit_modulus(capsys):
    code, d, _ = run_json(capsys, ["kappa", "3", "2", "--modulus", "2,1,1"])
    assert code == 0
    assert d["modulus"] == [2, 1, 1]
    assert d["kappa"][0][0] == [1, 0]


@pytest.mark.parametrize("flag", [["--cache-dir", "somewhere"], ["--seed", "5"], ["--force"]],
                         ids=["cache-dir", "seed", "force"])
def test_kappa_rejects_unused_flags(capsys, tmp_path, monkeypatch, flag):
    # structure constants are neither cached nor sampled
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["kappa", "3", "2", *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_kappa_pretty(capsys):
    code, out, _ = run(capsys, ["kappa", "3", "2", "--modulus", "2,1,1", "--pretty"])
    assert code == 0
    assert "modulus: [2, 1, 1]" in out


def test_kappa_composite_rejected(capsys):
    code, _, err = run(capsys, ["kappa", "4", "1"])
    assert code == 2
    assert "prime" in err


# -- caching and determinism -------------------------------------------------


def test_cache_hit_matches_cold_run(capsys, tmp_path):
    argv = ["verify", "hmod:p=3,m=1", "structural", "--cache-dir", str(tmp_path)]
    code1, d1, _ = run_json(capsys, argv)
    assert len(list(tmp_path.glob("*.json"))) == 1
    code2, d2, _ = run_json(capsys, argv)
    assert (code1, code2) == (0, 0)
    t1 = d1.pop("timings")
    t2 = d2.pop("timings")
    assert d1 == d2
    assert t1 and t2 == {}
    code3, d3, _ = run_json(capsys, argv + ["--force"])
    d3.pop("timings")
    assert d3 == d1


def test_cache_hit_writes_no_parameter_file(capsys, tmp_path, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = ["verify", "hmod:p=3,m=1", "all", "--cache-dir", str(tmp_path / "cache")]
    code1, d1, _ = run_json(capsys, argv)
    written = list(work.glob("params-*.json"))
    assert len(written) == 1
    written[0].unlink()
    code2, d2, _ = run_json(capsys, argv)
    assert (code1, code2) == (0, 0)
    assert list(work.iterdir()) == []
    assert d1.pop("timings") and d2.pop("timings") == {}
    assert d1 == d2


def test_cache_dir_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PGF_CACHE_DIR", str(tmp_path))
    run_json(capsys, ["invariants", "u3:p=3,m=1"])
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_cache_key_separates_moduli(capsys, tmp_path):
    base = ["--cache-dir", str(tmp_path)]
    run_json(capsys, ["invariants", "u3:p=3,m=2"] + base)
    run_json(capsys, ["invariants", "u3:p=3,m=2,modulus=[2,1,1]"] + base)
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_cache_key_folds_in_the_source_digest(capsys, tmp_path, monkeypatch):
    argv = ["invariants", "u3:p=3,m=1", "--cache-dir", str(tmp_path)]
    run_json(capsys, argv)
    _, d, _ = run_json(capsys, argv)
    assert d["timings"] == {}
    # a code change without a version bump must not be served the old entry
    monkeypatch.setattr(rp, "source_digest", lambda: "0" * 64)
    _, d, _ = run_json(capsys, argv)
    assert d["timings"]
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_sources_are_not_read_without_a_cache(capsys, monkeypatch):
    def refuse():
        raise AssertionError("source digest computed without a cache root")

    monkeypatch.delenv("PGF_CACHE_DIR", raising=False)
    monkeypatch.setattr(rp, "source_digest", refuse)
    code, d, _ = run_json(capsys, ["invariants", "u3:p=3,m=1"])
    assert code == 0
    assert d["timings"]


def test_reports_byte_identical_without_timings(capsys):
    _, out1, _ = run(capsys, ["kappa", "3", "2"])
    _, out2, _ = run(capsys, ["kappa", "3", "2"])
    assert out1 == out2
    _, o1, _ = run(capsys, ["invariants", "hmod:p=3,m=1"])
    _, o2, _ = run(capsys, ["invariants", "hmod:p=3,m=1"])
    d1, d2 = json.loads(o1), json.loads(o2)
    d1.pop("timings")
    d2.pop("timings")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (["invariants", "hmod:p=7,m=1"], "invariants-hmod-p-7-m-1.json"),
    (["verify", "hmod:p=7,m=1", "all"], "verify-hmod-p-7-m-1-all.json"),
    # the search witness, its nodes and the breadth mask read the leaders of G/Z
    (["isoclinic", "hmod:p=7,m=1", "quint:p=7,m=1"], "isoclinic-hmod-p-7-m-1-quint-p-7-m-1.json"),
    (["verify", "hmod:p=3,m=2", "all"], "verify-hmod-p-3-m-2-all.json"),
])
def test_reports_match_the_golden_bytes(capsys, tmp_path, monkeypatch, argv, name):
    # the files hold the stdout of an earlier release, timings and toolchain
    # removed, and the parameter file its verify wrote
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    del report["timings"], report["toolchain"]
    assert rp.to_json(report) == (GOLDEN / name).read_text()
    params = sorted(p.name for p in tmp_path.iterdir())
    assert params == ([name.replace("verify-", "params-").replace("-all", "")] if argv[0] == "verify" else [])
    for p in params:
        assert (tmp_path / p).read_bytes() == (GOLDEN / p).read_bytes()


def test_pretty_renders_from_the_same_payload(capsys):
    code, out, _ = run(capsys, ["verify", "u3:p=3,m=1", "a2", "--pretty"])
    assert code == 1
    assert "FAIL" in out and "a2:class_is_3" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pgf.cli", "kappa", "3", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kappa"] == [[[1]]]
