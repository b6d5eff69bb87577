"""Record the reference values that run.py compares each repetition against.

    python3 perfbench/record_reference.py --seeds 0-30 [--workloads sweep2d,cell2d]

Runs every workload once per seed, untraced, in its benchmark environment,
applies the workload checks, and writes perfbench/reference.json.  Record
at the commit whose results are the reference; run.py compares later code
against it with the tolerance documented in checks.py.
"""

from __future__ import annotations

import argparse
import json
import sys

from checks import observables, physics_failures
from run import REFERENCE, Run
from workloads import BENCH_WORKLOADS


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", required=True, help="e.g. 0-30 or 1,5,21")
    ap.add_argument("--workloads", default=",".join(BENCH_WORKLOADS))
    args = ap.parse_args(argv)
    ref = {}
    if REFERENCE.exists():
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    bad = 0
    for name in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            run = Run(name, seed, seconds=1, trace=False)
            rec = run.spawn("run", run.w.processes, run.w.pin_blas)
            res = rec["result"]
            if "wall_s" not in res or res.get("any_nonconverged"):
                print(f"{name} seed {seed}: run failed, not recorded: {rec.get('log_tail', '')[-300:]}")
                bad += 1
                continue
            fails = physics_failures(name, rec["out_dir"], res, seed)
            for f in fails:
                print(f"{name} seed {seed}: check failed: {f}")
            bad += bool(fails)
            obs = observables(name, rec["out_dir"], res)
            ref.setdefault(name, {})[str(seed)] = {"tol": res["tol"], "values": obs}
            print(f"{name} seed {seed}: {len(obs)} values, checks {'FAILED' if fails else 'ok'}")
            with open(REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
