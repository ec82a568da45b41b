"""Exit codes, JSON shape, options, and determinism of the command line."""

import argparse
import json
import pathlib
import subprocess
import sys

import pytest

import pgf.isoclinism
from pgf import report as rp
from pgf import structure as st
from pgf.cli import build_parser, main


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


def test_isoclinic_force_lifts_the_search_cap(capsys, monkeypatch):
    argv = ["isoclinic", "u3:p=3,m=1", "xab:u3:p=3,m=1,k=1"]
    monkeypatch.setattr(pgf.isoclinism, "SEARCH_CAP", 8)
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert "--force" in err
    code, d, _ = run_json(capsys, argv + ["--force"])
    assert code == 0
    assert d["checks"][0]["witness"]["outcome"] == "isoclinic"


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


def test_kappa_pretty(capsys):
    code, out, _ = run(capsys, ["kappa", "3", "2", "--modulus", "2,1,1", "--pretty"])
    assert code == 0
    assert "modulus: [2, 1, 1]" in out


def test_kappa_composite_rejected(capsys):
    code, _, err = run(capsys, ["kappa", "4", "1"])
    assert code == 2
    assert "prime" in err


# -- options -----------------------------------------------------------------


COMMANDS = {
    "invariants": ["invariants", "u3:p=3,m=1"],
    "verify": ["verify", "hmod:p=3,m=1", "all"],
    "isoclinic": ["isoclinic", "u3:p=3,m=1", "xab:u3:p=3,m=1,k=1"],
    "kappa": ["kappa", "3", "2"],
}

# no command draws random numbers or reads a cache, and only isoclinic has
# a search cap for --force to lift
UNUSED_FLAGS = [(cmd, flag) for cmd in COMMANDS
                for flag in (["--cache-dir", "X"], ["--seed", "5"], ["--force"])
                if not (cmd == "isoclinic" and flag == ["--force"])]


@pytest.mark.parametrize("command, flag", UNUSED_FLAGS,
                         ids=[f"{c}-{f[0].lstrip('-')}" for c, f in UNUSED_FLAGS])
def test_commands_reject_unused_flags(capsys, tmp_path, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*COMMANDS[command], *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_parser_option_surface():
    # a new option has to change this table, so it shows up in review
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
               for name, sp in sub.choices.items()}
    assert options == {
        "invariants": {"--pretty"},
        "verify": {"--pretty"},
        "isoclinic": {"--force", "--pretty"},
        "kappa": {"--modulus", "--pretty"},
    }


# -- determinism -------------------------------------------------------------


def test_every_run_computes_and_writes_its_parameter_file(capsys, tmp_path, monkeypatch):
    # PGF_CACHE_DIR names no cache: nothing is read from it or written to it,
    # and each verify run writes the parameter file afresh
    cache = tmp_path / "cache"
    work = tmp_path / "work"
    cache.mkdir()
    work.mkdir()
    monkeypatch.setenv("PGF_CACHE_DIR", str(cache))
    monkeypatch.chdir(work)
    for _ in range(2):
        code, d, _ = run_json(capsys, ["invariants", "u3:p=3,m=1"])
        assert code == 0 and d["timings"]
    written = []
    for _ in range(2):
        code, d, _ = run_json(capsys, ["verify", "hmod:p=3,m=1", "all"])
        assert code == 0 and d["timings"]
        assert [p.name for p in work.iterdir()] == ["params-hmod-p-3-m-1.json"]
        params = work / "params-hmod-p-3-m-1.json"
        written.append(params.read_bytes())
        params.unlink()
    assert written[0] == written[1]
    assert list(cache.iterdir()) == []


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
