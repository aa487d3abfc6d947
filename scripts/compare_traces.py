#!/usr/bin/env python3
"""Compare the per-solve records of two benchmark runs.

    python3 scripts/compare_traces.py A.solves.jsonl B.solves.jsonl

Solves are matched by (pass, instance, solver); passes that only one run
reached are skipped. Prints the number of solves compared and the name of
every one whose `cost_trace_sha1` or `iters_to_gap` differs, and exits 1 on
any difference, so that a change meant to leave the mathematics alone can
show that its cost traces are bit-identical.
"""

import argparse
import json

FIELDS = ("cost_trace_sha1", "iters_to_gap")


def load(path):
    """{(pass, instance, solver): record} of one `.solves.jsonl` file."""
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return {(r["pass"], r["instance"], r["solver"]): r for r in records}


def differences(a, b):
    """(number of common solves, sorted [(key, differing fields)])."""
    common = sorted(a.keys() & b.keys())
    diff = []
    for key in common:
        fields = [f for f in FIELDS if a[key].get(f) != b[key].get(f)]
        if fields:
            diff.append((key, fields))
    return len(common), diff


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", help="first .solves.jsonl")
    p.add_argument("b", help="second .solves.jsonl")
    args = p.parse_args(argv)
    n, diff = differences(load(args.a), load(args.b))
    print(f"compared {n} solves; {len(diff)} differ")
    for (pass_, instance, solver), fields in diff:
        print(f"  pass {pass_} {instance} {solver}: {', '.join(fields)}")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
