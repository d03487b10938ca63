#!/usr/bin/env python3
"""Steadiness report: two sets of untraced runs of the same code, compared.

    python3 bench/steady.py

For every workload in ``BENCHMARK.json``, set A uses seeds ``0 .. 9`` and set B
seeds ``10 .. 19``, one ``bench/run.py`` process at a time. For each workload
and end-to-end metric it prints each set's median and quartiles
(``statistics.quantiles(n=4)``), the spread (quartile distance over the
median) and whether the sets agree: every spread within the metric's bound,
and the two medians apart by no more than the bound, in either direction, as
a share of set A's. Raw values go to ``bench/out/steady.json``. The exit code
is 1 when a run fails or a comparison does not hold.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # per set


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    raw: dict = {}
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        raw[wl] = []
        for s in range(2):
            seeds = range(s * RUNS, (s + 1) * RUNS)
            raw[wl].append([run_once(wl, seed, spec["run_seconds"]) for seed in seeds])
            print(f"{wl}: set {'AB'[s]} done", file=sys.stderr, flush=True)
        print(f"\n{wl} ({RUNS} runs per set)")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            line = f"  {name:<22}"
            medians = []
            for s, runs in enumerate(raw[wl]):
                med, q1, q3, spread = summary([r[name] for r in runs])
                medians.append(med)
                spread_ok = spread <= bound
                ok &= spread_ok
                line += f" {'AB'[s]}: {med:12.6g} [{q1:.6g}, {q3:.6g}] spread {spread:6.2%}{'' if spread_ok else '!'}"
            apart = (medians[1] - medians[0]) / abs(medians[0])
            agree = abs(apart) <= bound
            ok &= agree
            line += f"  B - A {apart:+.2%} (bound {bound:.0%}): {'agree' if agree else 'DISAGREE'}"
            print(line, flush=True)
    out = HERE / "out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"\n{'all comparisons hold' if ok else 'some comparisons do not hold'}; raw values in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
