"""End-to-end tests for the command line interface."""

import hashlib
import json
from pathlib import Path

import pytest

from versal import groebner
from versal.cli import main
from versal.polyring import DEGREE_LIMIT

CONE = """\
# cone over the rational normal curve of degree four
ring: QQ
vars: x0 x1 x2 x3 x4
degrees: 1 1 1 1 1
generators:
    -x1^2 + x0*x2
    -x1*x2 + x0*x3
    -x2^2 + x1*x3
    -x1*x3 + x0*x4
    -x2*x3 + x1*x4
    -x3^2 + x2*x4
"""

DIAGONAL = """\
ring: QQ
vars: x1 x2 x3 y1 y2 y3 z1 z2 z3
degrees: (1,0,0) (1,0,0) (1,0,0) (0,1,0) (0,1,0) (0,1,0) (0,0,1) (0,0,1) (0,0,1)
generators:
    y1*z2
    x1*z2
    y2*z1
    y1*z1
    x2*z1
    x1*z1
    x1*y2
    x2*y1
    x1*y1
    x2*y2*z2
"""

CUSP = """\
ring: QQ
vars: x y
generators:
    x^2 - y^3
"""


@pytest.fixture
def cone_file(tmp_path):
    path = tmp_path / "cone.vdef"
    path.write_text(CONE)
    return str(path)


@pytest.fixture
def diagonal_file(tmp_path):
    path = tmp_path / "diagonal.vdef"
    path.write_text(DIAGONAL)
    return str(path)


@pytest.fixture
def cusp_file(tmp_path):
    path = tmp_path / "cusp.vdef"
    path.write_text(CUSP)
    return str(path)


# -- text output ------------------------------------------------------------

def test_t1_text(cone_file, capsys):
    assert main(["t1", cone_file]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "dim T1 = 4"
    assert len(lines) == 7  # header + one row per generator
    assert all(line.startswith("{-2} |") for line in lines[1:])


def test_t2_text(cone_file, capsys):
    assert main(["t2", cone_file]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "dim T2 = 3"


def test_normal_text(cone_file, capsys):
    assert main(["normal", cone_file, "--degree", "-1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "dim normal = 9"


def test_gb_text(cone_file, capsys):
    assert main(["gb", cone_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Groebner basis, 6 elements:"
    assert "x1^2 - x0*x2" in lines


def test_hilbert_text(cone_file, capsys):
    assert main(["hilbert", cone_file, "--upto", "3"]) == 0
    assert capsys.readouterr().out == \
        "H(0) = 1\nH(1) = 5\nH(2) = 9\nH(3) = 13\n"


def test_hilbert_multigraded_counts_by_total_degree(diagonal_file, capsys):
    assert main(["hilbert", diagonal_file, "--upto", "2"]) == 0
    assert capsys.readouterr().out == "H(0) = 1\nH(1) = 9\nH(2) = 36\n"


def test_deform_text(cone_file, capsys):
    assert main(["deform", cone_file]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "dim T1 = 4"
    assert lines[1] == "dim T2 = 3"
    assert "status: polynomial" in lines
    assert "order: 3" in lines
    assert any("-t1*t2" in line for line in lines)


# -- structured output ------------------------------------------------------

def test_deform_json_document(cone_file, capsys):
    assert main(["deform", cone_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["command", "dims", "matrices", "series", "status",
                         "orders_log"]
    assert doc["command"] == "deform"
    assert doc["dims"] == {"t1": 4, "t2": 3}
    assert doc["status"] == "polynomial"
    assert doc["matrices"]["G"] == [["-t1*t2"], ["t1^2 - 2*t1*t4"],
                                    ["t1*t3"]]
    assert list(doc["series"]) == ["F", "R", "G", "C"]
    assert list(doc["series"]["G"]) == ["2"]
    assert doc["orders_log"][-1] == "Solution is polynomial"


def test_t1_json(cone_file, capsys):
    assert main(["t1", cone_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "t1"
    assert doc["dims"] == {"t1": 4}
    assert len(doc["matrices"]["basis"]) == 6
    assert doc["status"] == "ok"


def test_json_runs_are_byte_identical(cone_file, capsys):
    main(["deform", cone_file, "--json"])
    first = capsys.readouterr().out
    main(["deform", cone_file, "--json"])
    assert capsys.readouterr().out == first


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args, digest", [
    (["deform", "demos/data/quartic_cone.vdef"],
     "2bde3f6ccd5fc6045547cd9eb612bb100eff1d3a842057ac46f94437b4950340"),
    (["deform", "demos/data/diagonal_p2cubed.vdef", "--degree", "0,0,0"],
     "e92c905ff534c891e1dfd39d196730c7ad3e9ae0840ffc59ef36b30de10390bb"),
    (["deform", "perfbench/nonclosing.vdef", "--degree", "0",
      "--max-order", "10"],
     "0feda5462bf0a7cd9beb61390b5434d52bfb154a48f37337c225451f523b148b"),
    (["t1", "demos/data/quartic_cone.vdef"],
     "eef2502085f239320b318e794411a8a201014c9a92012bc72e0cf4908a74b7f5"),
    (["t2", "demos/data/quartic_cone.vdef"],
     "983476f1ab18aaff907ce4f1f5867f5ffd806ca87d53cb74469241fcf3247202"),
    (["t1", "demos/data/diagonal_p2cubed.vdef", "--degree", "0,0,0"],
     "dc5fa1a0c7704a0d2a5c5a8dd490ee082d9010fee0abb56253678218522038b6"),
    (["t2", "demos/data/diagonal_p2cubed.vdef", "--degree", "0,0,0"],
     "711a0c52ab2151809c222899cf963c24a739b4b1f049c644362b4b52c5e2e95d"),
    (["gb", "demos/data/diagonal_p2cubed.vdef"],
     "9a60ebe9b3fbbfff3f6b8fda49646dd6491a643d07d399a3a8b1b99d3e4a3f9b"),
    (["normal", "demos/data/diagonal_p2cubed.vdef", "--degree", "0,0,0"],
     "9b30195b17cd52e964df5479a79327128d839f193ef153f0eebcb856dfab9706"),
    (["normal", "perfbench/nonclosing.vdef", "--degree", "0"],
     "c4ab0ff4578bc34b94d23fd6d25a394f75df41137499278ff78020b21cdb6535"),
    (["t1", "perfbench/nonclosing.vdef", "--degree", "0"],
     "b0da9a107dfafa1d4bfd2ea2b6b865b4bd8b912356904be3acf25b01948d7a0a"),
    (["t2", "perfbench/nonclosing.vdef", "--degree", "0"],
     "0fee0316107a3bfe9fa54afd3dd9274d92f6f8cf22e56f537da85f54fb3e6c13"),
    (["t1", "demos/data/quartic_cone.vdef", "--degree", "-1"],
     "f31a18e4c8c97fd4da556b150d91b032519286db2f40492d4b5253efed376792"),
    (["t2", "demos/data/quartic_cone.vdef", "--degree", "-2"],
     "f8763462d14f2310984dd62e2ac922a1d228dde15646cf4a7bc567fe1891eefa"),
    # the cone without its grading: the syzygies go through the ungraded
    # pruning and sort instead of the graded minimalisation
    (["deform", "tests/data/quartic_cone_ungraded.vdef"],
     "936d11280c8ed179a573a4a07504efd086d760197473e4ffcdeb74d641933128"),
], ids=["cone", "diagonal", "nonclosing", "t1-cone", "t2-cone",
        "t1-diagonal", "t2-diagonal", "gb-diagonal", "normal-diagonal",
        "normal-nonclosing", "t1-nonclosing", "t2-nonclosing",
        "t1-cone-graded", "t2-cone-graded", "cone-ungraded"])
def test_deform_json_golden_digest(args, digest, capsys):
    # a faster route to the same answer must not change one byte of it; the
    # deform digests are the end-to-end ones, and the t1, t2, normal and gb
    # digests pin the space builder and the Gröbner engine under them, in
    # both the graded and the local branch
    command, path, *rest = args
    assert main([command, str(ROOT / path), *rest, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    (["deform", "demos/data/quartic_cone.vdef"],
     "ad789786536d51edfe2423f24a74e8c685a92cea5572ef5bcdd9c04d2b8ceebe"),
    (["deform", "demos/data/diagonal_p2cubed.vdef", "--degree", "0,0,0"],
     "fec8ca5604df68e39749019ab23e3fa1fe6e5040b3cb9cd4a3c4bd2af95864fd"),
    (["deform", "perfbench/nonclosing.vdef", "--degree", "0",
      "--max-order", "10"],
     "05c34efcd6ad1f1c3e197774f3c22cfadc7cad8bedc0dc0a950ce4e5a8762877"),
], ids=["cone", "diagonal", "nonclosing"])
def test_deform_text_golden_digest(args, digest, capsys):
    # the text form is built apart from the --json document, so it is
    # pinned on its own
    command, path, *rest = args
    assert main([command, str(ROOT / path), *rest]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# -- verbosity and output redirection ---------------------------------------

def test_deform_verbose_log_lines(cone_file, capsys):
    assert main(["deform", cone_file, "--verbose", "2"]) == 0
    out = capsys.readouterr().out
    head = out.splitlines()[:6]
    assert head == [
        "Calculating first order deformations and obstruction space",
        "Calculating first order relations",
        "Starting lifting",
        "Order 2",
        "Order 3",
        "Solution is polynomial",
    ]


def test_deform_json_verbose_keeps_stdout_clean(cone_file, capsys):
    assert main(["deform", cone_file, "--json", "--verbose", "2"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout is pure JSON
    assert "Starting lifting" in captured.err


def test_verbose_one_status_line(cusp_file, capsys):
    assert main(["deform", cusp_file, "--verbose", "1"]) == 0
    assert "polynomial after order 1" in capsys.readouterr().out


def test_output_flag_writes_file(cone_file, tmp_path, capsys):
    target = tmp_path / "result.json"
    assert main(["t2", cone_file, "--json", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["dims"] == {"t2": 3}


# -- order control ----------------------------------------------------------

def test_max_order_flag_truncates(cone_file, capsys):
    assert main(["deform", cone_file, "--max-order", "2"]) == 0
    out = capsys.readouterr().out
    assert "status: truncated" in out and "order: 2" in out


def test_env_var_sets_default_order(cone_file, capsys, monkeypatch):
    monkeypatch.setenv("VERSAL_MAX_ORDER", "2")
    assert main(["deform", cone_file]) == 0
    assert "order: 2" in capsys.readouterr().out


def test_flag_overrides_env_var(cone_file, capsys, monkeypatch):
    monkeypatch.setenv("VERSAL_MAX_ORDER", "2")
    assert main(["deform", cone_file, "--max-order", "3"]) == 0
    assert "status: polynomial" in capsys.readouterr().out


# -- exit codes -------------------------------------------------------------

def test_missing_file_is_usage_error(capsys):
    assert main(["t1", "/no/such/file.vdef"]) == 2
    assert capsys.readouterr().err != ""


def test_smart_lift_rejected_even_without_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["deform", "/no/such/file.vdef", "--smart-lift"])
    assert exc.value.code == 2
    assert "--smart-lift" in capsys.readouterr().err


def test_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.vdef"
    path.write_text("ring: QQ\nvars: x y\ngenerators:\n    x +* y\n")
    assert main(["gb", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err


def test_degree_rank_mismatch(cone_file, capsys):
    assert main(["t1", cone_file, "--degree", "1,2"]) == 2
    assert "rank" in capsys.readouterr().err


def test_degree_on_ungraded_ring(cusp_file, capsys):
    assert main(["t1", cusp_file, "--degree", "0"]) == 2
    assert "graded" in capsys.readouterr().err


def test_zero_max_order_is_usage_error(cone_file, capsys):
    assert main(["deform", cone_file, "--max-order", "0"]) == 2


def test_bad_env_var_is_usage_error(cone_file, capsys, monkeypatch):
    monkeypatch.setenv("VERSAL_MAX_ORDER", "soon")
    assert main(["deform", cone_file]) == 2


def test_computation_error_exits_one(tmp_path, capsys):
    path = tmp_path / "noniso.vdef"
    path.write_text("ring: QQ\nvars: x y\ngenerators:\n    x^2*y^2\n")
    assert main(["t1", str(path)]) == 1
    assert capsys.readouterr().err.startswith("versal: error:")


def test_monomial_overflow_exits_one(tmp_path, capsys, monkeypatch):
    # an exponent a packed monomial cannot hold is a typed error, raised
    # when the first column is packed, before any S-pair is formed
    path = tmp_path / "overflow.vdef"
    path.write_text("ring: QQ\nvars: x y\ngenerators:\n    x^%d + y^2\n"
                    "    y^3\n" % DEGREE_LIMIT)
    spoly = groebner._Engine.spoly
    pairs = []

    def counted(self, i, j):
        pairs.append((i, j))
        return spoly(self, i, j)

    monkeypatch.setattr(groebner._Engine, "spoly", counted)
    assert main(["deform", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("versal: error:") and "overflow" in err
    assert pairs == []


def test_missing_required_degree_flag(cone_file):
    with pytest.raises(SystemExit) as exc:
        main(["normal", cone_file])
    assert exc.value.code == 2
