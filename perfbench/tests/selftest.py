#!/usr/bin/env python3
"""Self-test of the repository benchmark, at smoke size.

    python3 perfbench/tests/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
checks that:
  * end-to-end and traced runs print every metric BENCHMARK.json names, with
    its unit, under a valid name, and pass their output checks;
  * area_sum, the dpalloc.* and wordlength.* counts repeat exactly across two
    runs of one seed, and engine.executed + cache_hits + coalesced equals
    engine.submitted;
  * a deliberately corrupted result trips the output check (exit 1,
    correct=false, failed >= 1).
Exits 0 when everything holds, 1 otherwise.
"""

import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 4242
REPEATED = ("area_sum", "dpalloc.replayed", "dpalloc.iterations",
            "dpalloc.refinements", "dpalloc.escalations",
            "wordlength.evaluations", "wordlength.reused", "wordlength.steps",
            "wordlength.anneal_accepted")

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what, file=sys.stderr)


def run(workload, trace, *extra):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                            timeout=180)
    lines = result.stdout.strip().splitlines()
    try:
        return result.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return result.returncode, None


def check_metrics(workload, trace, out, declared):
    label = "%s trace=%d" % (workload, trace)
    expect(out is not None, label + ": no result line")
    if out is None:
        return
    expect(set(out) == {"correct", "attempted", "failed", "metrics"},
           label + ": result keys " + str(sorted(out)))
    expect(out.get("correct") is True, label + ": output check failed")
    expect(isinstance(out.get("attempted"), int) and out["attempted"] >= 1,
           label + ": attempted < 1")
    metrics = out.get("metrics", {})
    expect(set(metrics) == set(declared),
           label + ": metric names differ from BENCHMARK.json: " +
           str(sorted(set(metrics) ^ set(declared))))
    for name, m in metrics.items():
        expect(NAME.match(name) is not None, label + ": bad name " + name)
        expect(UNIT.match(m.get("unit", "")) is not None,
               label + ": bad unit for " + name)
        expect(name not in declared or m.get("unit") == declared[name],
               label + ": unit of %s is %s, not %s"
               % (name, m.get("unit"), declared.get(name)))
        expect(isinstance(m.get("value"), (int, float)),
               label + ": non-numeric " + name)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for workload in [w["name"] for w in bench["workloads"]]:
        runs = {}
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            for attempt in (0, 1):
                code, out = run(workload, trace)
                expect(code == 0, "%s trace=%d: exit %d"
                       % (workload, trace, code))
                check_metrics(workload, trace, out, declared)
                runs[(trace, attempt)] = (out or {}).get("metrics", {})

        for name in REPEATED:
            for trace in (0, 1):
                first = runs[(trace, 0)].get(name, {}).get("value")
                second = runs[(trace, 1)].get(name, {}).get("value")
                expect(first == second, "%s: %s differs across runs (%s, %s)"
                       % (workload, name, first, second))
        for attempt in (0, 1):
            m = {k: v["value"] for k, v in runs[(1, attempt)].items()}
            if m:
                expect(m["engine.executed"] + m["engine.cache_hits"] +
                       m["engine.coalesced"] == m["engine.submitted"],
                       workload + ": engine counts do not add up")

        for trace in (0, 1):
            code, out = run(workload, trace, "--corrupt")
            expect(code == 1 and out is not None and
                   out["correct"] is False and out["failed"] >= 1,
                   "%s trace=%d: corrupted result passed its check"
                   % (workload, trace))
        print("%s: %s" % (workload, "ok" if not failures else "checked"))

    if failures:
        print("%d self-test failure(s)" % len(failures), file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
