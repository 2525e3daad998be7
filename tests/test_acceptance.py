"""Acceptance suite: seven end-to-end criteria over a 50-circuit seeded
corpus, each printed as one PASS/FAIL line.

The corpus is 50 random syntactically multilinear circuits (n <= 12, at
most 100 gates, including several at 16 gates or fewer), plus the block
product families and their square (multi-2-ic) variants where a criterion
calls for them.  Everything is exact field arithmetic or seeded randomized
identity testing at p = 2^61 - 1; no tolerances anywhere.
"""

import json
import random
import time

from circflat import (
    balance,
    brute_force_expand,
    check_decomposition,
    compute_var,
    proof_tree_sum,
    quotient_table,
    random_equiv,
    reduce_depth4,
    reduce_depth_delta,
)
from circflat.circuit import Circuit, Gate
from circflat.cli import fit_topfanin_constants
from circflat.generators import (
    product_of_sums,
    product_of_sums_power,
    random_multilinear,
)
from circflat.normalize import normalized
from circflat.sparse import SparsePolynomial


def _report(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} ({elapsed:.1f}s) - {detail}")


# criterion 3 stashes its pipeline results here so criterion 4 can compare
# byte-for-byte against the same runs
_DEPTH4_CACHE = {}


def test_criterion_1_decomposition_identity(corpus):
    """The frontier decomposition identities hold on >= 10 admissible
    (u, v, m) triples per corpus circuit, 20 trials each."""
    t0 = time.time()
    failures = []
    total = 0
    for idx, c in enumerate(normalized(c0) for c0 in corpus):
        rng = random.Random(1000 + idx)
        var = compute_var(c)
        triples = []
        # plain identity: any u with |Var(u)| >= m >= 2
        candidates = [u for u in range(c.num_gates) if var.total(u) >= 2]
        while len(triples) < 5 and candidates:
            u = rng.choice(candidates)
            m = rng.randint(2, var.total(u))
            triples.append((u, None, m))
        # quotient identity: v on a rightmost path under u, |Var(u:v)| >= m,
        # |Var(v)| < m
        u = c.output
        quot = []
        for v in range(c.num_gates):
            if v == u:
                continue
            qt = quotient_table(c, v)
            if qt.reachable[u] and qt.total(u) >= 1:
                quot.append((v, qt.total(u)))
        rng.shuffle(quot)
        for v, qtotal in quot:
            if len(triples) >= 10:
                break
            lo = max(1, var.total(v) + 1)
            if lo > qtotal:
                continue
            m = rng.randint(lo, qtotal)
            triples.append((u, v, m))
        while len(triples) < 10:
            u2 = rng.choice(candidates)
            triples.append((u2, None, rng.randint(2, var.total(u2))))
        assert len(triples) >= 10
        for u2, v2, m2 in triples:
            total += 1
            chk = check_decomposition(c, u2, v2, m2, trials=20, seed=idx)
            if not chk.holds:
                failures.append((idx, u2, v2, m2))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60
    _report(1, ok, f"{total} triples over 50 circuits, {len(failures)} failures", elapsed)
    assert not failures, failures[:5]
    assert elapsed < 60


def _pos_suite(field):
    suite = []
    for b, w in ((4, 2), (8, 2), (4, 4)):
        suite.append((product_of_sums(b, w, field), 1 << 20))
        suite.append((product_of_sums_power(b, w, 2, field), 1 << 26))
    return suite


def test_criterion_2_balancing(corpus, field):
    """Balance output: product fan-in <= 5, halving, k preserved, exactly
    the input's polynomial, size within input_size^6."""
    t0 = time.time()
    problems = []
    items = [(orig, 1 << 20) for orig in corpus] + _pos_suite(field)
    for orig, budget in items:
        norm = normalized(orig)
        bal, rep = balance(norm)
        checks = {
            "mul_fanin": rep.max_mul_fanin <= 5,
            "halving": rep.halving_ok,
            "k": rep.k_preserved,
            "size": rep.output_size <= max(rep.input_size, 2) ** 6,
            "exact": brute_force_expand(bal, budget) == brute_force_expand(orig, budget),
        }
        bad = [k for k, v in checks.items() if not v]
        if bad:
            problems.append((orig.name, bad))
    elapsed = time.time() - t0
    ok = not problems and elapsed < 120
    _report(2, ok, f"{len(items)} circuits balanced, {len(problems)} problems", elapsed)
    assert not problems, problems[:5]
    assert elapsed < 120


def test_criterion_3_depth4(corpus):
    """Full pipeline to product depth 2: bottom polynomials within t,
    exact equivalence, recursion depth within 20kn/t."""
    t0 = time.time()
    problems = []
    for idx, c in enumerate(corpus):
        layered, rep = reduce_depth_delta(c, 2)
        _DEPTH4_CACHE[idx] = layered
        k, n, t = rep.k, rep.n, rep.t
        checks = {
            "product_depth": layered.product_depth() == 2,
            "bottoms": max(layered.bottom_var_masses(), default=0) <= t,
            "exact": layered.expand() == brute_force_expand(c),
            "tree_depth": rep.tree_depth * t <= 20 * k * n,
        }
        bad = [key for key, v in checks.items() if not v]
        if bad:
            problems.append((c.name, bad))
    elapsed = time.time() - t0
    ok = not problems and elapsed < 300
    _report(3, ok, f"{len(corpus)} pipelines, {len(problems)} problems", elapsed)
    assert not problems, problems[:5]
    assert elapsed < 300


def test_criterion_4_depth_delta(corpus):
    """Product depth <= Delta with exact equivalence for Delta in {2,3,4};
    Delta = 2 reproduces the depth-4 pipeline byte for byte."""
    t0 = time.time()
    problems = []
    for idx, c in enumerate(corpus):
        want = brute_force_expand(c)
        for delta in (2, 3, 4):
            layered, rep = reduce_depth_delta(c, delta)
            if layered.product_depth() > delta:
                problems.append((c.name, delta, "depth"))
            if layered.expand() != want:
                problems.append((c.name, delta, "exact"))
            if delta == 2:
                baseline = _DEPTH4_CACHE.get(idx) or reduce_depth_delta(c, 2)[0]
                if json.dumps(layered.to_json_dict()) != json.dumps(
                    baseline.to_json_dict()
                ):
                    problems.append((c.name, delta, "bytes"))
    elapsed = time.time() - t0
    ok = not problems
    _report(4, ok, f"{3 * len(corpus)} reductions, {len(problems)} problems", elapsed)
    assert not problems, problems[:5]


def test_criterion_5_bound_ratio_stability(field):
    """Fitted constant C in log_s(top fan-in) <= C kn / t varies by at most
    2x across 20 seeds for each t in {3, 4, 6}."""
    t0 = time.time()
    rows = []
    for seed in range(20):
        orig = random_multilinear(100, 12, seed=seed, field=field)
        norm = normalized(orig)
        bal, _ = balance(norm)
        for t in (3, 4, 6):
            layered, rep = reduce_depth4(bal, t, s_stat=norm.size())
            rows.append(
                {
                    "t": t,
                    "k": rep.k,
                    "n": rep.n,
                    "s": rep.s,
                    "top_fanin": rep.top_fanin,
                }
            )
    fits = fit_topfanin_constants(rows)
    spreads = {t: fits[t]["max"] / fits[t]["min"] for t in (3, 4, 6)}
    elapsed = time.time() - t0
    ok = all(v <= 2.0 for v in spreads.values())
    detail = ", ".join(f"t={t}: spread {v:.2f}x" for t, v in sorted(spreads.items()))
    _report(5, ok, detail, elapsed)
    assert ok, (spreads, fits)


def _quotient_poly_by_recursion(c: Circuit, u: int, v: int) -> SparsePolynomial:
    """[u:v] computed symbolically by the four-case recursion over exact
    polynomial arithmetic (independent of tree enumeration)."""
    from circflat.expand import CircuitExpander

    expander = CircuitExpander(c, budget=1 << 20)
    plain = [expander.expand(g) for g in range(u + 1)]
    zero = SparsePolynomial.zero(c.n, c.field)
    one = SparsePolynomial.const(c.n, c.field, 1)
    quot = [zero] * (u + 1)
    for g in range(u + 1):
        if g == v:
            quot[g] = one
            continue
        gate = c.gates[g]
        if gate.kind == "add":
            acc = zero
            for ch in gate.children:
                acc = acc.add(quot[ch])
            quot[g] = acc
        elif gate.kind == "mul":
            acc = quot[gate.children[-1]]
            for ch in gate.children[:-1]:
                acc = acc.mul(plain[ch])
            quot[g] = acc
    return quot[u]


def test_criterion_6_oracle_cross_validation(small_corpus):
    """On every <= 16-gate corpus circuit the exact expansion equals the
    proof-tree sum, and quotient polynomials match snipped-tree sums for 5
    sampled (u, v) pairs per circuit."""
    t0 = time.time()
    problems = []
    for idx, c in enumerate(small_corpus):
        if brute_force_expand(c) != proof_tree_sum(c, c.output, cap=1 << 16):
            problems.append((c.name, "plain"))
        rng = random.Random(6000 + idx)
        pairs = []
        attempts = 0
        while len(pairs) < 5 and attempts < 200:
            attempts += 1
            u = rng.randrange(c.num_gates)
            v = rng.randrange(c.num_gates)
            pairs.append((u, v))
        for u, v in pairs:
            want = proof_tree_sum(c, u, snip=v, cap=1 << 16)
            got = _quotient_poly_by_recursion(c, u, v)
            if got != want:
                problems.append((c.name, "snip", u, v))
    elapsed = time.time() - t0
    ok = not problems
    _report(
        6,
        ok,
        f"{len(small_corpus)} small circuits x 5 snipped pairs, {len(problems)} problems",
        elapsed,
    )
    assert not problems, problems[:5]


def test_criterion_7_negative_controls(corpus, field):
    """Mutating one live constant flips randomized equivalence to
    NotEquivalent within 20 trials, for all 50 seeded mutations."""
    t0 = time.time()
    rng = random.Random(77)
    flips = 0
    samples = 0
    misses = []
    circuits = list(corpus)
    i = 0
    while samples < 50:
        c = circuits[i % len(circuits)]
        i += 1
        live = c.cone(c.output)
        const_gates = [
            g for g in range(c.num_gates) if c.gates[g].kind == "const" and live[g]
        ]
        if not const_gates:
            continue
        gid = rng.choice(const_gates)
        gates = list(c.gates)
        gates[gid] = Gate("const", value=(gates[gid].value + 1) % field.p)
        mutated = Circuit(c.n, gates, c.output, field=field)
        if brute_force_expand(mutated) == brute_force_expand(c):
            continue  # the constant was semantically dead; not a valid control
        samples += 1
        res = random_equiv(c, mutated, trials=20, seed=rng.randrange(1 << 30))
        if res.verdict == "not_equivalent":
            flips += 1
        else:
            misses.append((c.name, gid))
    elapsed = time.time() - t0
    ok = flips == 50
    _report(7, ok, f"{flips}/50 mutations detected", elapsed)
    assert ok, misses
