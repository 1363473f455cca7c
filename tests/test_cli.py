"""Command-line surface: flags, formats, exit codes, byte stability."""

import json

import pytest

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
    ],
    ids=["not-half-integral", "rank-0", "g-below-lambda1", "not-dominant", "g-not-half-integer"],
)
def test_bad_input_exit_code(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("krlab %s: error: " % argv[0])


@pytest.mark.parametrize(
    "env, flags",
    [("abc", []), (None, ["--jobs", "-3"])],
    ids=["env-not-integer", "jobs-negative"],
)
def test_bad_jobs_exit_code(capsys, monkeypatch, env, flags):
    if env is None:
        monkeypatch.delenv("KRLAB_JOBS", raising=False)
    else:
        monkeypatch.setenv("KRLAB_JOBS", env)
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
        capsys, "verify", "--suite", "morris-c", "--max-weight", "2", "--n", "2",
        "--jobs", "3",
    )
    assert code1 == code2 == 0
    assert out1 == out2
