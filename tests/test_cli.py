import csv
import json

import pytest

from circflat.cli import main

from conftest import pos22


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def pos_file(tmp_path):
    path = tmp_path / "pos.ckt"
    path.write_text(pos22().serialize())
    return path


def test_validate_ok(pos_file):
    assert run(["validate", pos_file]) == 0


def test_validate_bad_file_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ckt"
    bad.write_text("circuit b\nnvars 1\ngate 0 = add 5\noutput 0\n")
    assert run(["--error-json", "validate", bad]) == 2
    out = capsys.readouterr().out
    assert json.loads(out.strip())["error"] == "ParseError"


def test_balance_rejects_invalid_circuit(tmp_path, capsys):
    # parses fine but fails validation: variable index out of range
    bad = tmp_path / "badvar.ckt"
    bad.write_text("circuit b\nnvars 1\ngate 0 = input x9\noutput 0\n")
    assert run(["balance", bad, "-o", tmp_path / "x.ckt"]) == 3
    assert "bad_variable" in capsys.readouterr().err


def test_stats_json(pos_file, capsys):
    assert run(["stats", pos_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["size"] == 6
    assert data["degree"] == 2


def test_balance_roundtrip(tmp_path, pos_file):
    out = tmp_path / "bal.ckt"
    rep = tmp_path / "rep.json"
    assert run(["balance", pos_file, "-o", out, "--report", rep]) == 0
    report = json.loads(rep.read_text())
    assert report["halving_ok"] and report["max_mul_fanin"] <= 5
    assert run(["verify", pos_file, out]) == 0


def test_reduce_verify_pipeline(tmp_path, pos_file):
    out = tmp_path / "out.ckt"
    rep = tmp_path / "rep.json"
    lay = tmp_path / "lay.json"
    code = run(
        ["reduce", pos_file, "-o", out, "--delta", "2", "--report", rep, "--layered-json", lay]
    )
    assert code == 0
    assert run(["verify", pos_file, out]) == 0
    report = json.loads(rep.read_text())
    assert report["t"] >= 1
    layered = json.loads(lay.read_text())
    assert layered["delta"] == 2


def test_verify_detects_difference(tmp_path, pos_file):
    other = tmp_path / "other.ckt"
    text = pos22().serialize().replace("gate 6 = mul 4 5", "gate 6 = add 4 5")
    other.write_text(text)
    assert run(["verify", pos_file, other]) == 1


def test_verify_randomized_path(tmp_path, pos_file):
    other = tmp_path / "same.ckt"
    other.write_text(pos22().serialize())
    # exact budget of 1 forces the randomized route
    assert run(["verify", pos_file, other, "--exact-budget", "1", "--trials", "10"]) == 0


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.ckt"
    b = tmp_path / "b.ckt"
    args = ["gen", "--family", "random_multilinear", "--n", "6", "--gates", "40", "--seed", "5"]
    assert run(args + ["-o", a]) == 0
    assert run(args + ["-o", b]) == 0
    assert a.read_text() == b.read_text()


def test_gen_invalid_spec(tmp_path, capsys):
    code = run(["gen", "--family", "bogus", "-o", tmp_path / "x.ckt"])
    assert code == 2


def test_reduce_delta3(tmp_path, pos_file):
    out = tmp_path / "d3.ckt"
    assert run(["reduce", pos_file, "-o", out, "--delta", "3"]) == 0
    assert run(["verify", pos_file, out]) == 0


def test_prime_flag(tmp_path):
    src = tmp_path / "c.ckt"
    src.write_text("circuit k\nnvars 1\ngate 0 = const 103\noutput 0\n")
    out = tmp_path / "o.ckt"
    assert run(["--prime", "101", "balance", src, "-o", out]) == 0
    assert "const 2" in out.read_text()


def test_bench(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "trials": 5,
                "items": [
                    {
                        "family": "random_multilinear",
                        "n": 6,
                        "gates": 40,
                        "seeds": [0, 1],
                        "t_values": [2, 3],
                        "delta": 2,
                    }
                ],
            }
        )
    )
    out = tmp_path / "results.csv"
    fit = tmp_path / "fit.json"
    assert run(["bench", "--config", cfg, "-o", out, "--fit-json", fit]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert set(rows[0]) >= {
        "family",
        "n",
        "k",
        "s",
        "delta",
        "t",
        "out_size",
        "top_fanin",
        "tree_depth",
        "bound_ratio",
        "topfanin_ratio",
        "equiv_verdict",
        "seconds",
    }
    assert all(r["equiv_verdict"] == "equivalent" for r in rows)
    fits = json.loads(fit.read_text())
    assert set(fits) == {"2", "3"}
def test_stats_dot(tmp_path, pos_file, capsys):
    dot = tmp_path / "c.dot"
    assert run(["stats", pos_file, "--dot", dot]) == 0
    text = dot.read_text()
    assert text.startswith("digraph") and "->" in text


def test_kernel_size_limit_exits_4(tmp_path, pos_file, monkeypatch, capsys):
    from circflat import backends

    monkeypatch.setattr(backends, "MAX_MERGE_TERMS", 2)
    code = run(["--error-json", "reduce", pos_file, "-o", tmp_path / "o.ckt", "--delta", "2"])
    assert code == 4
    assert json.loads(capsys.readouterr().out.strip())["error"] == "ExpansionTooLarge"
