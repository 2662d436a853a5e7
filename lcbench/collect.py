#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize the spread behind the bounds.

    python3 lcbench/collect.py --set A [--seeds 10] [--workloads w1,w2]

Run from the repository root. For each workload, runs `lcbench/run.py` once
per seed with BENCHMARK.json's run_seconds and --trace 0, then reports for
every end-to-end metric the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median against the
metric's bound. Each run's host notes are kept beside its metrics. The
summary is written to lcbench/runs/set-<name>.json; pass --compare A to also
report how far each median moved from an earlier set.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{cmd} exited {p.returncode}: {p.stderr[-2000:]}")
    notes = next((json.loads(l[len("host_notes "):]) for l in lines
                  if l.startswith("host_notes ")), None)
    result = json.loads(lines[-1])
    steps = {l.split()[0]: [float(x) for x in l.split()[1:]] for l in lines
             if l.startswith(("step_ms", "seq_ms"))}
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "host_notes": notes, "step_ms": steps.get("step_ms"),
            "seq_ms": steps.get("seq_ms")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--set", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in spec["workloads"]])
    earlier = None
    if args.compare:
        with open(os.path.join(HERE, "runs", f"set-{args.compare}.json")) as f:
            earlier = json.load(f)

    out = {"set": args.set, "run_seconds": spec["run_seconds"],
           "host": {"cpu": cpu_model(), "cores": os.cpu_count()},
           "workloads": {}}
    worst = 0.0
    for w in names:
        runs = []
        for i in range(args.seeds):
            r = one_run(w, args.first_seed + i, spec["run_seconds"])
            runs.append(r)
            print(f"{w} seed {r['seed']}: correct={r['correct']} "
                  f"notes={r['host_notes']}", flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in runs
                    if m["name"] in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                   "bound": m["bound"]}
            if earlier and m["name"] in earlier["workloads"].get(w, {}).get(
                    "summary", {}):
                base = earlier["workloads"][w]["summary"][m["name"]]["median"]
                sign = 1 if m["better"] == "lower" else -1
                row["worse_than_" + args.compare] = sign * (med - base) / base
            summary[m["name"]] = row
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {w:16s} {m['name']:20s} median {med:.6g} "
                  f"spread {spread:.4f} (bound {m['bound']})"
                  + (f" moved {row['worse_than_' + args.compare]:+.4f}"
                     if "worse_than_" + args.compare in row else ""),
                  flush=True)
        out["workloads"][w] = {"summary": summary, "runs": runs}
    os.makedirs(os.path.join(HERE, "runs"), exist_ok=True)
    with open(os.path.join(HERE, "runs", f"set-{args.set}.json"), "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
