"""Self-tests of the benchmark: run with `python3 lcbench/run.py --selftest`.

1. The C++ unit tests of the statistics and result formatting.
2. On a tiny model (--tiny) of every workload, a clean run whose last line
   parses with exactly the contract's keys and metric names, and a traced
   run that prints every per-layer metric.
3. The oracle self-check: each deliberately perturbed run must come out
   incorrect, with failed steps, for the reason its check names.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# (workload, perturbation, the problem line the failing check prints)
PERTURBED = [
    ("longctx-inproc", "ref-lr", "loss differs from the sequential reference"),
    ("longctx-1f1b", "params", "final params differ"),
    ("wide-shm", "twin-seed", "state differs from the inproc twin"),
    ("longctx-1f1b", "wire", "wire volumes differ from the closed form"),
]


def run(binary, workload, trace=0, perturb=None):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    if perturb:
        cmd += ["--perturb", perturb]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}: {p.stderr}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError("attempted must be a whole number >= 1")
    if not any(l.startswith("host_notes ") for l in lines):
        raise AssertionError("no host notes printed")
    return result, p.stdout


def expect_names(result, specs, what):
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise AssertionError(f"{what}: missing {missing}, extra {extra}, "
                             f"or units differ")


def main(binaries):
    binary, unit_tests = binaries
    if subprocess.run([unit_tests]).returncode != 0:
        return 1
    with open(SPEC) as f:
        spec = json.load(f)
    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            fn()
            print(f"[ ok ] {name}")
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as e:
            failures += 1
            print(f"[FAIL] {name}: {e}")

    def clean(workload):
        r, _ = run(binary, workload)
        if not r["correct"] or r["failed"] != 0:
            raise AssertionError(f"clean run failed: {r}")
        expect_names(r, spec["end_to_end"], "end_to_end")

    def traced(workload):
        r, _ = run(binary, workload, trace=1)
        if not r["correct"] or r["failed"] != 0:
            raise AssertionError(f"clean traced run failed: {r}")
        expect_names(r, spec["per_layer"], "per_layer")

    def perturbed(workload, mode, reason):
        r, out = run(binary, workload, perturb=mode)
        if r["correct"] or r["failed"] == 0:
            raise AssertionError(f"perturbation {mode} went unnoticed: {r}")
        if reason not in out:
            raise AssertionError(f"no '{reason}' problem reported:\n{out}")

    for w in [x["name"] for x in spec["workloads"]]:
        check(f"clean {w}", lambda w=w: clean(w))
        check(f"traced {w}", lambda w=w: traced(w))
    for w, mode, reason in PERTURBED:
        check(f"perturbed {w} {mode}",
              lambda w=w, m=mode, r=reason: perturbed(w, m, r))
    print(f"{failures} failure(s)")
    return 1 if failures else 0
