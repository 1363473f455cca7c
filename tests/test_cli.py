"""Command-line surface: flags, formats, exit codes, byte stability."""

import ast
import hashlib
import json
import os
import subprocess
import sys

import pytest

import krlab.cli
import krlab.identities
from krlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_kl_golden(capsys):
    code, out = run(
        capsys, "kl", "--type", "C", "--n", "4", "--lambda", "1,1,0,0", "--mu", "0,0,0,0"
    )
    assert code == 0
    assert out.strip() == "q^6+q^4+q^2"


def test_kl_diagonal(capsys):
    code, out = run(capsys, "kl", "--type", "C", "--n", "2", "--lambda", "1,0", "--mu", "1,0")
    assert code == 0
    assert out.strip() == "1"


def test_kl_qt_and_spin_weights(capsys):
    code, out = run(capsys, "kl-qt", "--n", "2", "--lambda", "1,0", "--mu", "0,0")
    assert code == 0
    assert out.strip() == "q*t-q+t"
    code, out = run(
        capsys, "kl-qt", "--n", "3", "--lambda", "3/2,3/2,3/2", "--mu", "1/2,1/2,1/2"
    )
    assert code == 0
    assert out.strip() == "q^3*t^3+q^3*t+q^2*t+q*t"


def test_usage_error_exit_code(capsys):
    assert main(["kl", "--type", "Z", "--n", "2", "--lambda", "1", "--mu", "1"]) == 2
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["kl", "--type", "C", "--n", "2", "--lambda", "1/3,0", "--mu", "0,0"],
        ["kl", "--type", "C", "--n", "0", "--lambda", "1", "--mu", "0"],
        ["level", "--type", "C", "--n", "2", "--lambda", "2,0", "--mu", "0,0", "--g", "1"],
        ["kl", "--type", "C", "--n", "2", "--lambda", "1,2", "--mu", "0,0"],
        ["enumerate", "--kind", "ssot", "--shape", "1,1", "--weight", "1,1,1,1", "--g", "0.3"],
        ["energy", "--kind", "box", "--element", "1|x"],
        ["energy", "--kind", "box", "--element", "1|1", "--caps", "a,b"],
        ["energy", "--kind", "hdom", "--element", "1|1"],
        ["energy", "--kind", "box", "--element", "1,2|1", "--caps", "1,1"],
        ["energy", "--row", "--kind", "vdom", "--element", "1|1", "--caps", "2"],
        ["energy", "--kind", "box", "--element", "1|1", "--caps", "1"],
        ["verify", "--suite", "thm-c", "--n", "2", "--max-weight", "-1"],
        ["energy", "--row", "--kind", "box", "--element", "1|2,1"],
        ["energy", "--row", "--kind", "hdom", "--element", "0|1", "--caps", "1,1"],
        ["energy", "--kind", "box", "--element", "0|1", "--caps", "1,1"],
        ["energy", "--kind", "box", "--element", "1,1", "--caps", "2"],
        ["energy", "--kind", "box", "--element", "2,1", "--caps", "2"],
        ["energy", "--kind", "vdom", "--element", "2,1|1"],
        ["energy", "--kind", "box", "--element", "268435457,-268435457", "--caps", "2"],
        ["energy", "--kind", "box", "--element", "-268435457,268435457", "--caps", "2"],
        ["kl", "--type", "D", "--n", "1", "--lambda", "2", "--mu", "0"],
        ["level", "--type", "D", "--n", "1", "--lambda", "1", "--mu", "0"],
    ],
    ids=[
        "not-half-integral", "rank-0", "g-below-lambda1", "not-dominant", "g-not-half-integer",
        "element-not-integer", "caps-not-integer", "hdom-column", "word-over-capacity",
        "row-caps-short", "caps-short", "max-weight-negative", "row-word-unsorted",
        "row-hdom-zero-letter", "column-zero-letter",
        "column-word-repeated", "column-word-decreasing", "vdom-column-word-decreasing",
        "letter-over-rank-bound", "letter-over-rank-bound-misordered",
        "kl-type-D-rank-1", "level-type-D-rank-1",
    ],
)
def test_bad_input_exit_code(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("krlab %s: error: " % argv[0])


@pytest.mark.parametrize("suite", ["morris-c", "morris-b"])
def test_verify_morris_rank_1(capsys, suite):
    # the recurrence's rank-1 values, q^((lam_1 - mu_1)/2) in type C and
    # t^(lam_1 - mu_1) in type B, against the oracle
    code, out = run(capsys, "verify", "--suite", suite, "--n", "1", "--max-weight", "5")
    reports = json.loads(out)["reports"]
    assert code == 0 and len(reports) == 36
    assert all(r["equal"] for r in reports)


@pytest.mark.parametrize("flags", [["--jobs", "-3"]], ids=["jobs-negative"])
def test_bad_jobs_exit_code(capsys, flags):
    argv = ["verify", "--suite", "thm-c", "--max-weight", "1", "--n", "2"] + flags
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("krlab verify: error: ")


def test_level_command(capsys):
    code, out = run(
        capsys,
        "level", "--type", "C", "--n", "2", "--lambda", "2,0", "--mu", "0,0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["lhs"] == payload["mid"] == payload["rhs"]


def test_enumerate_json(capsys):
    code, out = run(
        capsys, "enumerate", "--kind", "ssot", "--shape", "1,1", "--weight", "1,1,1,1",
        "--g", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert all(
        all(len(strip) == 3 for strip in chain) for chain in payload["chains"]
    )


def test_energy_command(capsys):
    code, out = run(
        capsys, "energy", "--kind", "vdom",
        "--element", "1|1|-1|1", "--caps", "1,1,1,1",
    )
    assert code == 0
    assert out.strip() == "6"
    code, out = run(
        capsys, "energy", "--kind", "box", "--element", "[]|[]|[]", "--caps", "1,1,1"
    )
    assert code == 0
    assert out.strip() == "9 vac=3 qt=q^3*t^3"


@pytest.mark.parametrize(
    "element, caps, code",
    [("-2,-1", "2", 0), ("-1|-2", "1,1", 0), ("-1,2", "2", 2)],
)
def test_energy_leading_barred_letter(capsys, element, caps, code):
    # a spaced --element value that starts with a barred letter is read as
    # the value, the same as the glued form
    spaced = run(capsys, "energy", "--kind", "box", "--element", element, "--caps", caps)
    glued = run(capsys, "energy", "--kind", "box", "--element=" + element, "--caps", caps)
    assert spaced == glued
    assert spaced[0] == code


def test_negative_leading_weight(capsys):
    # a spaced --lambda or --mu value that starts with a minus sign is read
    # as the value, the same as the glued form
    args = ["kl", "--type", "A", "--n", "2"]
    spaced = run(capsys, *args, "--lambda", "-1,-2", "--mu", "-1,-2")
    glued = run(capsys, *args, "--lambda=-1,-2", "--mu=-1,-2")
    assert spaced == glued == (0, "1\n")


def test_verify_json_and_csv(capsys):
    code, out = run(capsys, "verify", "--suite", "thm-c", "--max-weight", "2", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(r["equal"] for r in payload["reports"])
    code, out = run(
        capsys, "verify", "--suite", "q1", "--max-weight", "1", "--n", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "identity,params,lhs,rhs,equal"
    assert all(line.endswith("True") for line in lines[1:])


def test_verify_jobs_stable(capsys):
    code1, out1 = run(capsys, "verify", "--suite", "morris-c", "--max-weight", "2", "--n", "2")
    code2, out2 = run(
        capsys, "verify", "--suite", "morris-c", "--max-weight", "2", "--n", "2", "--jobs", "3"
    )
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "suite",
    ["thm-c", "thm-b", "morris-c", "morris-b", "thm-c-rec", "thm-b-rec", "level", "level-mid", "xk", "q1"],
)
def test_verify_jobs_matches_serial(capsys, suite):
    argv = ["verify", "--suite", suite, "--n", "2", "--max-weight", "3"]
    code1, out1 = run(capsys, *argv, "--jobs", "1")
    code2, out2 = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cost_proxy_reads_every_task_shape():
    # --jobs sends the chunks out by |lambda| + |mu|, read from the weights
    # among a task's args: doubled in the level suites, mu first in xk
    cost = krlab.cli._cost
    assert cost(("thm-c", {}, (2, (2, 1), (1,), 2))) == 4
    assert cost(("xk", {}, ("box", (1,), (2, 1)))) == 4
    assert cost(("level", {}, ("B", 2, (5, 1), (1, 1), 5))) == 8
    for suite in krlab.identities.SUITES:
        costs = [cost(t) for t in krlab.identities.suite_tasks(suite, 2, 2)]
        assert max(costs) > min(costs) >= 0, suite


def test_jobs_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(krlab.cli.os, "cpu_count", lambda: 2)
    assert [krlab.cli._jobs(j) for j in (1, 2, 64)] == [1, 2, 2]
    monkeypatch.setattr(krlab.cli.os, "cpu_count", lambda: None)
    assert krlab.cli._jobs(None) == 1


# sha256 of `verify --suite S --n 2 --max-weight 3` as the suites printed it
# while each side was still evaluated twice per instance (xk, morris-c,
# morris-b) and while characters had a polynomial class of their own (all)
_VERIFY_SHA256 = {
    "thm-c": "1fc26e3edff137bb485b87745727467b8d36ec2653823744dd3eeb56eb7d7e03",
    "thm-b": "839ba901b99ffce08f1dbd71d640a659121016e3ef90dea4402150039e556917",
    "morris-c": "2687b9829bcd6bfa8e71d2f198706dda1cb4165d266293cafd9d94b0df76fceb",
    "morris-b": "a7c80d9ae25376dc6a8f989fee2887f4b2292ccec8151e7d5a6c24a489660dfe",
    # recorded when the recurrence suites were added
    "thm-c-rec": "225882734d5fbb45d3188593362e2af786d2424c4ad9aa6348f4193617464781",
    "thm-b-rec": "f2ef24f3f44ea2478a603678a0f88025ac99d94b76c56444b98b4ff881eb4b52",
    "level": "4916a27eafc0117fed9b7691e689aa73933d6a354d57521a8e7988ad63831ca4",
    # recorded when the suite was added
    "level-mid": "78481fc9753d3b477649d295384d38916c8f3fd375eabd0983170b5fe1b6d3ba",
    "xk": "ec7e55eb740f2433ce5cc7577a22d39efb68899ed3db8afb34d282d6c12a73f5",
    "q1": "567a0c378717ca334f619102b63e758270445bbb2bb5ed3525f0f4901f6240f5",
}


@pytest.mark.parametrize("suite", sorted(_VERIFY_SHA256))
def test_verify_output_pinned(capsys, suite):
    code, out = run(capsys, "verify", "--suite", suite, "--n", "2", "--max-weight", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_SHA256[suite]


# The crystal-side suites on grids that reach many capacity >= 2 columns, so
# that the R-matrix and the splitting run on more than a handful of factors
_VERIFY_SHA256_LARGE = {
    ("thm-c", 4, 4): (288, "586e70eae78ca17115dc435602615902e850d1dab7ddeabd1a6043009c3576b1"),
    ("thm-b", 3, 4): (121, "9f2dd9bf030c026f56a0618eaa6a74b2ce58783a059de417995add46ec8b33f5"),
    # recorded while the level sum still listed every element and filtered
    ("level", 4, 4): (720, "a00ba5991b998752bd5659805e7e5cabf20a53cd7998c537caa1d1bc4c276f60"),
    # recorded while the letter crystals were still written rule by rule
    ("xk", 3, 4): (169, "ba5d6747476794c8452c15696bdbe7b6f11554b288fe4b7400897b6446be0779"),
}


@pytest.mark.parametrize("suite, n, max_weight", sorted(_VERIFY_SHA256_LARGE))
def test_verify_output_pinned_larger_grid(capsys, suite, n, max_weight):
    code, out = run(
        capsys, "verify", "--suite", suite, "--n", str(n), "--max-weight", str(max_weight)
    )
    assert code == 0
    reports, digest = _VERIFY_SHA256_LARGE[suite, n, max_weight]
    assert len(json.loads(out)["reports"]) == reports
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "suite, sides",
    [
        ("xk", ("xk_lhs", "xk_rhs_unfiltered")),
        ("morris-c", ("kl_poly", "morris_c")),
        ("morris-b", ("kl_qt_B", "morris_b_qt")),
    ],
)
def test_verify_evaluates_each_side_once(capsys, monkeypatch, suite, sides):
    # no side calls the other: morris_c and morris_b_qt recurse through
    # _morris and never reach kl_poly or kl_qt_B
    calls = dict.fromkeys(sides, 0)
    for name in sides:
        def counted(*args, _name=name, _fn=getattr(krlab.identities, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(krlab.identities, name, counted)
    code, out = run(capsys, "verify", "--suite", suite, "--n", "2", "--max-weight", "3")
    assert code == 0
    tasks = len(json.loads(out)["reports"])
    assert tasks > 0 and calls == dict.fromkeys(sides, tasks)
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_SHA256[suite]


def test_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter, so that modules other tests loaded do not count
    src = os.path.dirname(os.path.dirname(krlab.cli.__file__))
    code = (
        "import sys, krlab\n"
        "loaded = lambda: sorted(m[6:] for m in sys.modules if m.startswith('krlab.'))\n"
        "bare, sizes = loaded(), sorted(krlab.cache_sizes())\n"
        "import krlab.cli\n"
        "print(repr({'bare': bare, 'sizes': sizes, 'cli': loaded(),"
        " 'std': [m for m in ('dataclasses', 'inspect') if m in sys.modules]}))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    seen = ast.literal_eval(out.stdout.strip())
    assert seen["std"] == []
    # the package itself loads only the modules its cache readout needs
    assert seen["bare"] == [
        "crystal", "kr_column", "kr_row", "letters", "oscillating", "partitions", "polynomials", "qweight", "roots"
    ]
    assert "rsk" not in seen["cli"]
    assert {"qweight._memo", "kr_row._tables", "kr_column._factors", "oscillating._shapes"} <= set(seen["sizes"])
