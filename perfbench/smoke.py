#!/usr/bin/env python3
"""Smoke test of the dcert benchmark: runs every workload at a tiny size,
untraced and traced, and checks that each declared metric is present with
its unit, that the correctness gate passed, and that the two runs of one
seed recorded the same certificate-chain digest.

    python3 perfbench/smoke.py

Run from the root of a checkout; takes about a minute once built.
"""
import json
import os
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

# Tiny sizes: short chains, one setup, a short measurement.
SMOKE = {
    "certify": {"blocks": 3, "setup_reps": 1},
    "query_hot": {"blocks": 3, "setup_reps": 1},
    "query_churn": {"blocks": 4, "setup_reps": 1, "announce_ms": 250},
}


def digest(workload, seed, trace):
    path = os.path.join(run.ROOT, ".bench_out",
                        f"{workload}-seed{seed}-trace{int(trace)}.json")
    try:
        with open(path) as f:
            return json.load(f)["info"].get("cert_chain_digest")
    except (OSError, ValueError, KeyError):
        return None


def main():
    failures = 0
    for workload, overrides in SMOKE.items():
        digests = set()
        for trace in (False, True):
            status, line = run.run(workload, seed=7, seconds=1.5, trace=trace,
                                   overrides=overrides)
            result = json.loads(line) if line else {}
            ok = (status == 0 and result.get("correct") is True and
                  result.get("attempted", 0) > 0)
            failures += 0 if ok else 1
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={int(trace)} "
                  f"exit={status} attempted={result.get('attempted')} "
                  f"failed={result.get('failed')} "
                  f"metrics={len(result.get('metrics', {}))}", flush=True)
            digests.add(digest(workload, 7, trace))
        same = len(digests) == 1 and None not in digests
        failures += 0 if same else 1
        print(f"{'ok  ' if same else 'FAIL'} {workload} certificate-chain "
              f"digest {'identical' if same else 'differs'} across runs",
              flush=True)
    print("smoke: " + ("passed" if failures == 0 else f"{failures} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
