import csv
import hashlib
import json

import pytest

from circflat.circuit import load
from circflat.cli import main
from circflat.generators import random_multilinear

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


def test_stats_json_golden(tmp_path, capsys):
    """The whole `stats --json` output, exact degree included, is pinned:
    it is the output recorded when the degree came from a full expansion,
    less the sampled-degree field reports no longer carry."""
    path = tmp_path / "rm.ckt"
    path.write_text(random_multilinear(60, 8, seed=3).serialize())
    assert run(["stats", path, "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["degree_exact"]
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "22eddc565592be5e8438c456a69ae0af533c18b7da77d3d7f7bb8d41e01d80e9"
    )


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


def test_verify_randomized_path_above_point_streams(pos_file, capsys):
    # random points are uint64 words: 2^64 - 59 is served, 2^89 - 1 is not
    args = ["verify", pos_file, pos_file, "--exact-budget", "1"]
    assert run(["--prime", (1 << 64) - 59] + args) == 0
    capsys.readouterr()
    assert run(["--prime", (1 << 89) - 1] + args) == 2
    err = capsys.readouterr().err
    assert "2^64" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "before,after",
    [(["--seed", -1], []), (["--seed", 1 << 64], []), ([], ["--trials", -3]), ([], ["--trials", 0])],
)
def test_verify_rejects_bad_seeds_and_trial_counts(tmp_path, pos_file, capsys, before, after):
    # the randomized route, on two circuits that differ
    other = tmp_path / "other.ckt"
    other.write_text(pos22().serialize().replace("gate 6 = mul 4 5", "gate 6 = add 4 5"))
    assert run(before + ["verify", "--exact-budget", "1"] + after + [pos_file, other]) == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.err and "equivalent" not in out.out


@pytest.mark.parametrize("delta", [2, 3])
def test_reduce_constant_circuit(tmp_path, delta):
    src = tmp_path / "k.ckt"
    src.write_text("circuit k\nnvars 0\ngate 0 = const 5\noutput 0\n")
    out = tmp_path / "o.ckt"
    lay = tmp_path / "o.json"
    assert run(["stats", src]) == 0
    assert run(["reduce", src, "-o", out, "--delta", delta, "--layered-json", lay]) == 0
    assert load(out).evaluate([]) == 5
    assert json.loads(lay.read_text())["summands"] == [{"count": 1, "coeff": 5, "factors": []}]


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


def test_reduce_delta3_wide_products(tmp_path):
    from circflat.generators import product_of_sums

    src = tmp_path / "pos24x2.ckt"
    src.write_text(product_of_sums(24, 2).serialize())
    out = tmp_path / "d3.ckt"
    assert run(["reduce", src, "-o", out, "--delta", "3"]) == 0
    assert run(["verify", src, out]) == 0


def test_prime_flag(tmp_path):
    src = tmp_path / "c.ckt"
    src.write_text("circuit k\nnvars 1\ngate 0 = const 103\noutput 0\n")
    out = tmp_path / "o.ckt"
    assert run(["--prime", "101", "balance", src, "-o", out]) == 0
    assert "const 2" in out.read_text()


def test_balance_square_over_f2(tmp_path, capsys):
    src = tmp_path / "sq.ckt"
    src.write_text("circuit sq\nnvars 1\ngate 0 = input x1\ngate 1 = mul 0 0\noutput 1\n")
    out = tmp_path / "o.ckt"
    assert run(["--prime", "2", "balance", src, "-o", out]) == 0
    capsys.readouterr()
    assert run(["--prime", "2", "verify", src, out]) == 0
    assert "equivalent (exact)" in capsys.readouterr().out


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


def test_expansion_budget_exits_4(tmp_path, pos_file, capsys):
    # (x1 + x2)(x3 + x4) is one bottom factor at t = 4, monomial bound 16
    argv = ["--budget", "2", "--error-json", "reduce", pos_file, "-o", tmp_path / "o.ckt"]
    code = run(argv + ["--delta", "2"])
    assert code == 4
    assert json.loads(capsys.readouterr().out.strip())["error"] == "ExpansionTooLarge"


@pytest.mark.parametrize("name", ["CIRCFLAT_PRIME", "CIRCFLAT_SEED", "CIRCFLAT_BUDGET"])
def test_unparsable_env_default_is_usage_error(pos_file, monkeypatch, capsys, name):
    monkeypatch.setenv(name, "12x")
    with pytest.raises(SystemExit) as exc:
        run(["validate", pos_file])
    assert exc.value.code == 2
    assert name in capsys.readouterr().err


def test_flag_wins_over_unparsable_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CIRCFLAT_PRIME", "12x")
    src = tmp_path / "c.ckt"
    src.write_text("circuit k\nnvars 1\ngate 0 = const 103\noutput 0\n")
    out = tmp_path / "o.ckt"
    assert run(["--prime", "101", "balance", src, "-o", out]) == 0
    assert "const 2" in out.read_text()
