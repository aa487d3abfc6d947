#!/usr/bin/env python3
"""Compare the per-solve records of two benchmark runs.

    python3 scripts/compare_traces.py A.solves.jsonl B.solves.jsonl

Solves are matched by (pass, instance, solver); passes that only one run
reached are skipped. A solve's final-cost change is the signed relative
change (b - a) / max(|a|, |b|) of its `final_cost` from run A to run B:
negative where B ended lower. Prints one summary line (solves compared, how
many differ, the final-cost change of the largest magnitude among them, how
many of them ended higher and how many lower in B, and how many differ in
`iters_to_gap`), then the name of every differing solve, that is one whose
`cost_trace_sha1` or `iters_to_gap` differs, with its final-cost change, and
exits 1 on any difference, so that a change meant to leave the mathematics
alone can show that its cost traces are bit-identical, or how far and which
way they moved.
"""

import argparse
import json
import os
import sys

FIELDS = ("cost_trace_sha1", "iters_to_gap")


def load(path):
    """{(pass, instance, solver): record} of one `.solves.jsonl` file."""
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return {(r["pass"], r["instance"], r["solver"]): r for r in records}


def relative_change(a, b):
    """(b - a) / max(|a|, |b|), 0 when equal, None when either is missing."""
    if a is None or b is None:
        return None
    return 0.0 if a == b else (b - a) / max(abs(a), abs(b))


def differences(a, b):
    """(number of common solves, sorted [(key, differing fields, relative
    change of the final cost)])."""
    common = sorted(a.keys() & b.keys())
    diff = []
    for key in common:
        fields = [f for f in FIELDS if a[key].get(f) != b[key].get(f)]
        if fields:
            rel = relative_change(a[key].get("final_cost"), b[key].get("final_cost"))
            diff.append((key, fields, rel))
    return len(common), diff


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", help="first .solves.jsonl")
    p.add_argument("b", help="second .solves.jsonl")
    args = p.parse_args(argv)
    n, diff = differences(load(args.a), load(args.b))
    rels = [rel for _, _, rel in diff if rel is not None]
    largest = f"{max(rels, key=abs):+.2e}" if rels else "n/a"
    higher, lower = sum(rel > 0 for rel in rels), sum(rel < 0 for rel in rels)
    hits = sum("iters_to_gap" in fields for _, fields, _ in diff)
    lines = [f"compared {n} solves; {len(diff)} differ; largest final_cost relative "
             f"change {largest}; final_cost higher in B in {higher}, lower in {lower}; "
             f"iters_to_gap differs in {hits}"]
    for (pass_, instance, solver), fields, rel in diff:
        moved = "n/a" if rel is None else f"{rel:+.2e}"
        lines.append(f"  pass {pass_} {instance} {solver}: {', '.join(fields)}; "
                     f"final_cost relative change {moved}")
    try:
        print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`| head -1`): the rest of the output, and
        # the interpreter's flush at exit, go to devnull; the exit code stays
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
