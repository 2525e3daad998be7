"""Command-line front end.

Subcommands: validate, stats, balance, reduce, verify, gen, bench.  Global
flags (--prime, --seed, --budget) are mirrored by the environment
variables CIRCFLAT_PRIME, CIRCFLAT_SEED and CIRCFLAT_BUDGET; explicit
flags win, and a variable read in place of a missing flag must be an
integer (else exit 2).  With --error-json, failures print one
machine-readable JSON object on stdout before exiting nonzero.

Exit codes: 0 success (or Equivalent), 1 failed check (diagnostics, or
NotEquivalent), 2 parse/usage errors, 3 violated preconditions, 4
expansion budget exceeded, 5 other toolkit errors.
"""

import argparse
import csv
import json
import math
import os
import sys
import time

from .balance import balance
from .circuit import load, save, validate
from .depth_reduce import choose_t, reduce_depth_delta
from .errors import (
    CircflatError,
    ExpansionTooLarge,
    InvalidCircuit,
    InvalidParams,
    InvalidSpec,
    NotBalanced,
    ParseError,
    PreconditionViolated,
    TooManyProofTrees,
)
from .expand import brute_force_expand, expansion_bound
from .field import DEFAULT_PRIME, FieldSpec
from .generators import GeneratorSpec, generate
from .normalize import normalized
from .verify import check_bounds, random_equiv, structural_report

_EXIT_CODES = (
    (ParseError, 2),
    (InvalidSpec, 2),
    (InvalidParams, 2),
    (PreconditionViolated, 3),
    (NotBalanced, 3),
    (InvalidCircuit, 3),
    (ExpansionTooLarge, 4),
    (TooManyProofTrees, 4),
    (CircflatError, 5),
)


# global flag -> (environment variable, default when neither is set)
_ENV_DEFAULTS = {
    "prime": ("CIRCFLAT_PRIME", DEFAULT_PRIME),
    "seed": ("CIRCFLAT_SEED", 0),
    "budget": ("CIRCFLAT_BUDGET", 1 << 20),
}


def _env_default(parser, name, fallback):
    """Integer value of the environment variable ``name``, or ``fallback``
    when it is unset or empty; a value that is not an integer is a usage
    error (exit 2)."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return fallback
    try:
        return int(raw)
    except ValueError:
        parser.error(f"environment variable {name}: {raw!r} is not an integer")


def _add_globals(parser, suppress=False):
    # None marks a flag not given; main then reads the environment
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--prime",
        type=int,
        default=d,
        help="prime modulus for all circuit semantics (default 2^61 - 1)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=d,
        help="seed for randomized checks",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=d,
        help="monomial budget for exact expansions",
    )
    parser.add_argument(
        "--error-json",
        action="store_true",
        default=d if suppress else False,
        help="print failures as a JSON object on stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="circflat",
        description="Depth reduction for multilinear and multi-k-ic algebraic circuits.",
    )
    _add_globals(ap)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check circuit invariants")
    p.add_argument("file")

    p = sub.add_parser("stats", help="structural report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", help="also write a Graphviz rendering (small circuits)")

    p = sub.add_parser("balance", help="normalize and balance a circuit")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report")

    p = sub.add_parser("reduce", help="full depth-reduction pipeline")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--report")
    p.add_argument("--layered-json", help="also write the layered JSON form")

    p = sub.add_parser("verify", help="equivalence of two circuit files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--exact-budget", type=int, default=None)
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("gen", help="generate a circuit from a family")
    p.add_argument("--family", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--gates", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--blocks", type=int)
    p.add_argument("--block-size", type=int)

    p = sub.add_parser("bench", help="bound-ratio benchmark suite")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--fit-json", help="write per-threshold fit summary")

    # accept the global flags after the subcommand as well
    for name, sp in sub.choices.items():
        _add_globals(sp, suppress=True)
    return ap


def _cmd_validate(args, field):
    circuit = load(args.file, field=field)
    diags = validate(circuit)
    for d in diags:
        print(str(d), file=sys.stderr)
    return 1 if diags else 0


def _cmd_stats(args, field):
    circuit = load(args.file, field=field)
    rep = structural_report(circuit, degree_budget=args.budget)
    if args.json:
        print(json.dumps(rep.to_json_dict(), indent=2))
    else:
        for key, value in rep.to_json_dict().items():
            print(f"{key}: {value}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(_to_dot(circuit))
    return 0


def _to_dot(circuit) -> str:
    lines = [f'digraph "{circuit.name}" {{', "  rankdir=BT;"]
    for i, g in enumerate(circuit.gates):
        if g.kind == "input":
            label, shape = f"x{g.var}", "circle"
        elif g.kind == "const":
            label, shape = str(g.value), "box"
        else:
            label, shape = ("+", "diamond") if g.kind == "add" else ("*", "diamond")
        peri = ", peripheries=2" if i == circuit.output else ""
        lines.append(f'  g{i} [label="{label}", shape={shape}{peri}];')
        for c in g.children:
            lines.append(f"  g{c} -> g{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require_clean(circuit):
    diags = validate(circuit)
    if diags:
        for d in diags:
            print(str(d), file=sys.stderr)
        raise InvalidCircuit(f"{len(diags)} diagnostics")


def _cmd_balance(args, field):
    circuit = load(args.input, field=field)
    _require_clean(circuit)
    bal, rep = balance(normalized(circuit))
    save(bal, args.output)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(rep.to_json_dict(), fh, indent=2)
    print(
        f"balanced: size {rep.input_size} -> {rep.output_size}, "
        f"max mul fan-in {rep.max_mul_fanin}, halving_ok {rep.halving_ok}"
    )
    return 0


def _cmd_reduce(args, field):
    circuit = load(args.input, field=field)
    _require_clean(circuit)
    layered, rep = reduce_depth_delta(
        circuit, args.delta, t=args.t, budget=args.budget
    )
    save(layered.flatten(name=circuit.name + "_flat"), args.output)
    if args.layered_json:
        with open(args.layered_json, "w", encoding="utf-8") as fh:
            json.dump(layered.to_json_dict(), fh)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(rep.to_json_dict(), fh, indent=2)
    print(
        f"reduced to product depth <= {args.delta}: t={rep.t}, "
        f"top fan-in {rep.top_fanin}, tree depth {rep.tree_depth}, size {rep.out_size}"
    )
    return 0


def _cmd_verify(args, field):
    a = load(args.a, field=field)
    b = load(args.b, field=field)
    budget = args.exact_budget if args.exact_budget is not None else args.budget
    bound_a = expansion_bound(a, a.output)
    bound_b = expansion_bound(b, b.output)
    if bound_a <= budget and bound_b <= budget:
        equal = brute_force_expand(a, budget) == brute_force_expand(b, budget)
        print("equivalent (exact)" if equal else "NOT equivalent (exact)")
        return 0 if equal else 1
    res = random_equiv(a, b, trials=args.trials, seed=args.seed)
    if res.equivalent:
        print(f"equivalent ({args.trials} randomized trials)")
        return 0
    print(f"NOT equivalent: witness {res.witness} gives {res.values}")
    return 1


def _cmd_gen(args, field):
    spec = GeneratorSpec(
        family=args.family,
        n=args.n,
        seed=args.seed,
        gates=args.gates,
        k=args.k,
        blocks=args.blocks,
        block_size=args.block_size,
    )
    circuit = generate(spec, field=field)
    save(circuit, args.output)
    print(f"wrote {circuit.name}: n={circuit.n}, gates={circuit.num_gates}, size={circuit.size()}")
    return 0


def _bench_item_rows(item, field, trials, budget):
    from .analysis import inferred_k

    seeds = item.get("seeds", [0])
    t_values = item.get("t_values", [None])
    delta = item.get("delta", 2)
    rows = []
    for seed in seeds:
        spec = GeneratorSpec(
            family=item["family"],
            n=item.get("n"),
            seed=seed,
            gates=item.get("gates"),
            k=item.get("k"),
            blocks=item.get("blocks"),
            block_size=item.get("block_size"),
        )
        circuit = generate(spec, field=field)
        before = structural_report(circuit, degree_budget=budget)
        for t in t_values:
            t0 = time.time()
            layered, rep = reduce_depth_delta(circuit, delta, t=t, budget=budget)
            seconds = time.time() - t0
            schedule = choose_t(rep.n, rep.k, rep.s, delta)
            if t is not None:
                schedule.t_value = t
            after = structural_report(layered, degree_budget=budget)
            bounds = check_bounds(before, after, schedule)
            equiv = random_equiv(circuit, layered, trials=trials, seed=seed)
            rows.append(
                {
                    "family": item["family"],
                    "n": circuit.n,
                    "k": max(inferred_k(circuit), 1),
                    "s": rep.s,
                    "delta": delta,
                    "t": rep.t,
                    "out_size": rep.out_size,
                    "top_fanin": rep.top_fanin,
                    "tree_depth": rep.tree_depth,
                    "bound_ratio": f"{bounds.bound_ratio:.6f}",
                    "topfanin_ratio": f"{bounds.topfanin_ratio:.6f}",
                    "equiv_verdict": equiv.verdict,
                    "seconds": f"{seconds:.3f}",
                    "seed": seed,
                }
            )
    return rows


_BENCH_COLUMNS = [
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
    "seed",
]


def _cmd_bench(args, field):
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    trials = config.get("trials", 20)
    rows = []
    for item in config["items"]:
        rows.extend(_bench_item_rows(item, field, trials, args.budget))
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    fits = fit_topfanin_constants(rows)
    for t, stats in sorted(fits.items()):
        print(
            f"t={t}: fitted C in [{stats['min']:.4f}, {stats['max']:.4f}] "
            f"(mean {stats['mean']:.4f}, {stats['count']} runs)"
        )
    if args.fit_json:
        with open(args.fit_json, "w", encoding="utf-8") as fh:
            json.dump(fits, fh, indent=2)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def fit_topfanin_constants(rows):
    """Per-threshold spread of the constant C with
    log_s(top fan-in) = C * kn / t."""
    groups = {}
    for row in rows:
        t = int(row["t"])
        k, n, s = int(row["k"]), int(row["n"]), int(row["s"])
        top = max(int(row["top_fanin"]), 1)
        c = (math.log2(top) / math.log2(max(s, 2))) * t / (k * n)
        groups.setdefault(t, []).append(c)
    out = {}
    for t, cs in groups.items():
        out[t] = {
            "min": min(cs),
            "max": max(cs),
            "mean": sum(cs) / len(cs),
            "count": len(cs),
        }
    return out


_COMMANDS = {
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    "balance": _cmd_balance,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, (name, fallback) in _ENV_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, _env_default(parser, name, fallback))
    try:
        field = FieldSpec(args.prime)
        return _COMMANDS[args.command](args, field)
    except CircflatError as exc:
        code = 5
        for klass, exit_code in _EXIT_CODES:
            if isinstance(exc, klass):
                code = exit_code
                break
        if args.error_json:
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
