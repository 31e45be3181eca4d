"""CLI contract tests: exit codes, JSON round-trips, table/JSON parity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from p2models import cli
from p2models.cli import main
from p2models.dvr import make_ring
from p2models.fiber import FiberClass
from p2models.models import ModelDescriptor

CANON = json.dumps({"p": 3, "M": 12, "m": 3, "n": 3,
                    "a_digits": [0, 1, 1], "j": 1})
TWIST = json.dumps({"p": 3, "M": 12, "m": 3, "n": 3,
                    "a_digits": [0, 2, 2], "j": 2})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ring_info(capsys):
    code, out, _ = run(capsys, "ring-info", "--p", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["e"] == 6 and doc["v_lam1"] == 3
    assert doc["eta_digits_mod_pi^p"] == [0, 1, 1]


def test_phi_canonical_cell(capsys):
    code, out, _ = run(capsys, "phi", "--p", "3", "--m", "3", "--n", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["surjective"] is True
    assert [(e["a_digits"], e["j"]) for e in doc["elements"]] == \
        [([0, 0, 0], 0), ([0, 1, 1], 1), ([0, 2, 2], 2)]


def test_phi_brute_matches(capsys):
    _, out1, _ = run(capsys, "phi", "--p", "3", "--m", "2", "--n", "1")
    _, out2, _ = run(capsys, "phi", "--p", "3", "--m", "2", "--n", "1",
                     "--brute")
    assert json.loads(out1)["elements"] == json.loads(out2)["elements"]


def test_enumerate_m_max_zero(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "3", "--m-max", "0")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["models"]) == 1
    assert doc["models"][0]["m"] == 0 and doc["models"][0]["n"] == 0


def test_isomorphic_example(capsys):
    code, out, _ = run(capsys, "isomorphic", "--left", CANON,
                       "--right", TWIST)
    assert code == 0
    assert json.loads(out)["isomorphic"] is True


def test_hom_with_brute(capsys):
    code, out, _ = run(capsys, "hom", "--left", CANON, "--right", TWIST,
                       "--brute")
    doc = json.loads(out)
    assert code == 0
    assert doc["hom"]["class"] == "OrderP2"
    assert doc["brute"]["class"] == "OrderP2"


def test_fiber_verify(capsys):
    code, out, _ = run(capsys, "fiber", "--descriptor", CANON, "--verify")
    doc = json.loads(out)
    assert code == 0
    assert doc["fiber"] == {"class": "ZpByZp", "a": 0, "b": 1}
    assert doc["verified"] is True


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--descriptor", CANON)
    assert code == 0
    bad = json.dumps({"p": 3, "M": 12, "m": 2, "n": 2,
                      "a_digits": [0, 0], "j": 1})  # (0,1) not in Phi
    code, out, err = run(capsys, "verify", "--descriptor", bad)
    assert code == 2 and "not in Phi" in err


def test_verify_outside_phi_is_bad_input(capsys):
    bad = json.dumps({"p": 3, "M": 12, "m": 3, "n": 3,
                      "a_digits": [0, 1, 0], "j": 1})
    code, out, err = run(capsys, "verify", "--descriptor", bad)
    assert code == 2 and out == ""
    assert "not in Phi" in err and "verification failure" not in err


OUTSIDE_PHI = json.dumps({"p": 3, "M": 12, "m": 3, "n": 3,
                          "a_digits": [0, 1, 0], "j": 1})


@pytest.mark.parametrize("argv", [
    ("fiber", "--descriptor", OUTSIDE_PHI),
    ("fiber", "--verify", "--descriptor", OUTSIDE_PHI),
    ("isomorphic", "--left", CANON, "--right", OUTSIDE_PHI),
    ("hom", "--left", OUTSIDE_PHI, "--right", CANON),
    ("hom", "--brute", "--left", CANON, "--right", OUTSIDE_PHI),
])
def test_every_subcommand_rejects_descriptors_outside_phi(capsys, argv):
    # fiber used to print a class and isomorphic to answer true, with
    # exit 0; fiber --verify and hom --brute exited 1 with
    # "verification failure: DivisibilityError"
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "not in Phi" in err and "verification failure" not in err


@pytest.mark.parametrize("argv", [
    ("fiber", "--descriptor"),
    ("isomorphic", "--right", CANON.replace('"M": 12', '"M": 2'), "--left"),
    ("hom", "--right", CANON.replace('"M": 12', '"M": 2'), "--left"),
])
def test_descriptor_check_names_too_low_precision(capsys, argv):
    # membership in Phi of (3,3,[0,1,1],1) is not decided at M = 2
    low = CANON.replace('"M": 12', '"M": 2')
    code, out, err = run(capsys, *argv, low, "--precision", "2")
    assert code == 2 and out == ""
    assert "--precision 2" in err and "M = 2" in err
    assert "verification failure" not in err


def test_verify_short_a_digits_is_bad_input(capsys):
    short = json.dumps({"p": 3, "M": 12, "m": 3, "n": 3,
                        "a_digits": [0, 1], "j": 1})
    code, out, err = run(capsys, "verify", "--descriptor", short)
    assert code == 2 and out == ""
    assert "malformed descriptor" in err


@pytest.mark.parametrize("field, value", [
    ("a_digits", [0, 4, 1]),     # a digit not below p
    ("a_digits", [0, -2, 1]),
    ("a_digits", [0, True, 1]),
    ("j", 1.0),
    ("a_digits", [0, 1.5, 1]),
    ("a_digits", ["x", 1, 1]),
])
def test_verify_rejects_non_integer_descriptor_fields(capsys, field, value):
    # a digit outside [0, p) is rejected, not reduced mod p and verified
    desc = {"p": 3, "M": 12, "m": 3, "n": 3, "a_digits": [0, 1, 1], "j": 1}
    desc[field] = value
    code, out, err = run(capsys, "verify", "--descriptor", json.dumps(desc))
    assert code == 2 and out == ""
    assert "malformed descriptor" in err and repr(field) in err


CANON_WITHOUT_J = json.dumps({k: v for k, v in json.loads(CANON).items()
                              if k != "j"})


@pytest.mark.parametrize("flag", ["--descriptor", "--right"])
@pytest.mark.parametrize("blob", ['[1]', '"x"', "null", '{"p": 3}',
                                  CANON_WITHOUT_J])
def test_descriptor_of_the_wrong_shape_is_named_by_its_fields(capsys, flag,
                                                             blob):
    # a non-object, or an object without a field, once exited 2 naming
    # Python internals: "list indices must be integers or slices, not
    # str", "'NoneType' object is not subscriptable", or just "'M'"
    argv = (("verify", "--descriptor", blob) if flag == "--descriptor"
            else ("isomorphic", "--left", CANON, "--right", blob))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "fields p, M, m, n, a_digits and j" in err
    assert not any(s in err for s in ("indices", "subscriptable", "'M'"))


def test_verify_descriptor_precision_mismatch(capsys):
    low = json.dumps({"p": 3, "M": 5, "m": 3, "n": 3,
                      "a_digits": [0, 1, 1], "j": 1})
    code, out, err = run(capsys, "verify", "--descriptor", low)
    assert code == 2 and "does not match precision 12" in err
    code, out, _ = run(capsys, "verify", "--descriptor", low,
                       "--precision", "5")
    assert code == 0 and json.loads(out)["descriptor"]["M"] == 5


def test_verify_and_fiber_reject_too_low_precision(capsys):
    # (3,3,[0,1,1],1) cannot be decided at M = 2 or 3 and passes at M = 4.
    # At M = 3 its relation has coefficients known to no digit; they were
    # once dropped as zero, and verify passed on a different algebra.
    for M, want in ((2, 2), (3, 2), (4, 0)):
        desc = json.dumps({"p": 3, "M": M, "m": 3, "n": 3,
                           "a_digits": [0, 1, 1], "j": 1})
        for argv in (("verify",), ("fiber", "--verify")):
            code, out, err = run(capsys, *argv, "--descriptor", desc,
                                 "--precision", str(M))
            assert code == want, (argv, M, err)
            if want == 2:
                assert out == "" and "verification failure" not in err
                assert f"--precision {M}" in err and f"M = {M}" in err


def test_every_precision_subcommand_names_too_low_precision(capsys):
    # phi --brute decides the congruence mod pi^9 from elements known
    # mod pi^6; this exited 1 with "verification failure: PrecisionError"
    code, out, err = run(capsys, "phi", "--p", "3", "--m", "3", "--n", "3",
                         "--brute", "--precision", "2")
    assert code == 2 and out == ""
    assert "--precision 2" in err and "M = 2" in err
    assert "verification failure" not in err


def test_hom_brute_rejects_too_low_precision(capsys):
    # at M = 3 the relation of (3,3,[0,1,1],1) has coefficients known to
    # no digit; hom --brute once classified it as OrderP2 from zero tests
    # on them
    for M, want in ((3, 2), (4, 0)):
        desc = json.dumps({"p": 3, "M": M, "m": 3, "n": 3,
                           "a_digits": [0, 1, 1], "j": 1})
        code, out, err = run(capsys, "hom", "--left", desc, "--right", desc,
                             "--brute", "--precision", str(M))
        assert code == want, (M, err)
        if want == 2:
            assert out == "" and f"--precision {M} is too low" in err
        else:
            assert json.loads(out)["brute"]["class"] == "OrderP2"


def test_phi_brute_over_budget_is_bad_input(capsys):
    code, out, err = run(capsys, "phi", "--p", "3", "--m", "1", "--n", "1",
                         "--brute", "--budget", "1")
    assert code == 2 and out == ""
    assert "candidates exceed budget 1" in err


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "phi", "--p", "4", "--m", "1", "--n", "1")
    assert code == 2 and "odd prime" in err
    code, _, err = run(capsys, "phi", "--p", "3", "--m", "1", "--n", "2")
    assert code == 2
    code, _, err = run(capsys, "isomorphic", "--left", "{oops",
                       "--right", CANON)
    assert code == 2


J0 = json.dumps({"p": 3, "M": 12, "m": 3, "n": 3,
                 "a_digits": [0, 0, 0], "j": 0})


@pytest.mark.parametrize("argv, message", [
    (("phi", "--m", "1", "--n", "2"),
     "need p >= m >= n >= 0, got p=3, m=1, n=2"),
    (("phi", "--m", "4", "--n", "4", "--brute"),
     "need p >= m >= n >= 0, got p=3, m=4, n=4"),
    (("phi", "--m", "1", "--n", "2", "--brute"),
     "need p >= m >= n >= 0, got p=3, m=1, n=2"),
    (("enumerate", "--m-max", "-1"), "need 0 <= m-max <= p"),
    (("enumerate", "--m-max", "4"), "need 0 <= m-max <= p"),
    (("isomorphic", "--left", CANON, "--right", J0),
     "isomorphism criterion applies to models (j != 0)"),
    (("hom", "--left", J0, "--right", CANON),
     "hom classification applies to models (j != 0)"),
    (("selftest", "--p", "7"), "selftest covers p = 3 and p = 5"),
    (("selftest", "--criteria", "2,99"), "unknown criteria ['99']"),
    (("dump-series", "--p", "4"), "p must be a prime, got 4"),
    (("dump-series", "--degree", "0"), "degree must be >= 1"),
    (("ring-info", "--p", "4"), "p must be an odd prime, got 4"),
    (("ring-info", "--precision", "1"), "M must be at least 2"),
    (("verify", "--descriptor", CANON.replace('"m": 3', '"m": 4')),
     "malformed descriptor: need p >= m >= n >= 0, got p=3, m=4, n=3"),
    (("phi", "--m", "3", "--n", "3", "--brute", "--budget", "5"),
     "81 candidates exceed budget 5"),
])
def test_bad_input_exits_2_with_the_library_message(capsys, argv, message):
    # the library refuses each of these where the input enters it
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_an_internal_value_error_is_not_bad_input(capsys, monkeypatch):
    # dump-series once mapped every ValueError to exit 2
    def broken(p, degree):
        raise ValueError("operands from different rings")

    monkeypatch.setattr(cli, "ah_series", broken)
    with pytest.raises(ValueError, match="different rings"):
        main(["dump-series", "--p", "3", "--degree", "6"])


def test_descriptor_json_roundtrip():
    ring = make_ring(3, 12)
    d = ModelDescriptor.from_json(ring, json.loads(CANON))
    assert ModelDescriptor.from_json(ring, d.to_json()) == d


def test_fiberclass_json_roundtrip():
    fc = FiberClass("AlphaPExtension", (1, 2))
    assert FiberClass.from_json(fc.to_json()) == fc


def test_table_and_json_same_data(capsys):
    _, out_json, _ = run(capsys, "phi", "--p", "3", "--m", "3", "--n", "1")
    _, out_tab, _ = run(capsys, "phi", "--p", "3", "--m", "3", "--n", "1",
                        "--table")
    doc = json.loads(out_json)
    lines = [l for l in out_tab.splitlines()[2:] if l.strip()]
    assert len(lines) == len(doc["elements"])
    for line, el in zip(lines, doc["elements"]):
        a_str, j_str = line.split()
        digits = [] if a_str == "0" and not el["a_digits"] else \
            [int(x) for x in a_str.split(".")]
        assert digits == el["a_digits"]
        assert int(j_str) == el["j"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "ring-info", "--p", "3", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["p"] == 3


@pytest.mark.parametrize("table", [False, True], ids=["json", "table"])
def test_out_file_holds_what_stdout_prints(tmp_path, capsys, table):
    argv = ["phi", "--p", "3", "--m", "3", "--n", "3"]
    argv += ["--table"] if table else []
    _, printed, _ = run(capsys, *argv)
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == printed


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_out_unwritable_is_bad_input(tmp_path, where):
    # in a subprocess, so that a traceback would reach stderr
    target = tmp_path / "no-such-dir" / "x.json" if where == "missing-dir" \
        else tmp_path
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "p2models.cli", "ring-info", "--p", "3",
         "--out", str(target)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"cannot write --out {target}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_dump_series_golden(capsys):
    code, out, _ = run(capsys, "dump-series", "--p", "3", "--degree", "6")
    doc = json.loads(out)
    assert code == 0
    assert doc["coefficients"][:4] == ["1", "1", "1/2", "1/2"]


@pytest.mark.parametrize("p", ["0", "1", "4"])
@pytest.mark.parametrize("deformed", [[], ["--deformed"]])
def test_dump_series_rejects_non_prime(p, deformed):
    # in a subprocess with a timeout: p = 1 once looped forever in
    # ah_series, whose `while p ** r <= D` never ended
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "p2models.cli", "dump-series", "--p", p,
         "--degree", "6"] + deformed,
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"p must be a prime, got {p}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_dump_series_p2(capsys):
    code, out, _ = run(capsys, "dump-series", "--p", "2", "--degree", "4")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["1", "1", "1", "2/3", "2/3"]


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--p", "3",
                       "--criteria", "2,13,neg")
    doc = json.loads(out)
    assert code == 0
    assert [r["criterion"] for r in doc] == ["2", "13", "neg"]
    assert all(r["passed"] for r in doc)


@pytest.mark.parametrize("p", ["4", "7"])
def test_selftest_rejects_uncovered_prime(capsys, p):
    code, out, err = run(capsys, "selftest", "--p", p)
    assert code == 2 and out == ""
    assert f"selftest covers p = 3 and p = 5, got p = {p}" in err


def test_verify_emit_presentation(capsys):
    code, out, _ = run(capsys, "verify", "--descriptor", CANON,
                       "--emit-presentation")
    doc = json.loads(out)
    assert code == 0
    pres = doc["presentation"]
    assert pres["generators"] == ["S1", "S2"]
    assert len(pres["relations"]) == 2
    assert len(pres["units"]) == 2
