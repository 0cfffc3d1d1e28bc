#!/usr/bin/env python3
"""Summarises benchmark records, the JSON lines run.sh --record appends.

    python3 benchmark/compare.py A.jsonl           # medians and spreads
    python3 benchmark/compare.py A.jsonl B.jsonl   # and B against A

Only untraced records (trace 0) are used. For each workload and
end-to-end metric of BENCHMARK.json it prints the median over the records
and the spread: the distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of the median.
A spread must stay below a third of the metric's bound (set-up time is
exempt). Given a second set, every median of B must be no worse than A's
by more than the bound, and both sets must report the same sim_digest
for each workload and seed. Exits 1 when a check fails.
"""
import json
import pathlib
import statistics
import sys

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text())


def load(path):
    """Untraced records of @path, grouped by workload."""
    by_workload = {}
    for line in pathlib.Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == 0:
                by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    sets = [load(p) for p in argv[1:]]
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [s.get(workload, []) for s in sets]
        if any(len(r) < 2 for r in runs):
            print(f"{workload}: fewer than 2 records")
            ok = False
            continue
        print(f"{workload} ({', '.join(str(len(r)) for r in runs)} runs,"
              f" {sum(r['failed'] for rs in runs for r in rs)} failed checks)")
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = []
            for rs in runs:
                vals = [r["metrics"][name]["value"] for r in rs]
                sp = spread(vals)
                bad = name != "setup_s" and sp > bound / 3
                ok &= not bad
                cols.append(f"{statistics.median(vals):>14.6g}"
                            f" spread {sp:6.2%}{' !' if bad else '  '}")
            if len(runs) == 2:
                a, b = (statistics.median(r["metrics"][name]["value"]
                                          for r in rs) for rs in runs)
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                bad = worse > bound
                ok &= not bad
                cols.append(f"worse by {worse:+7.2%} (bound {bound:.0%})"
                            f"{' !' if bad else ''}")
            print(f"  {name:<20} " + " | ".join(cols))
        if len(runs) == 2:
            digests = [{r["seed"]: r["sim_digest"] for r in rs} for rs in runs]
            common = digests[0].keys() & digests[1].keys()
            same = all(digests[0][s] == digests[1][s] for s in common)
            ok &= same and bool(common)
            print(f"  sim_digest identical on {len(common)} common seeds: {same}")
        ok &= all(r["failed"] == 0 for rs in runs for r in rs)
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
