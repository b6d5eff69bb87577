"""Fast self-test of the benchmark harness on a tiny 1D sweep (about 30 s).

    python3 perfbench/selftest.py

Checks that
  - every metric BENCHMARK.json names is printed with its unit, untraced
    and traced, and fail_frac is printed;
  - an injected non-converged study gives fail_frac = 1;
  - a study that raises counts as a failed run and the harness still
    prints its result;
  - run.py exits non-zero, without a result line, in a directory that holds
    only BENCHMARK.json and the benchmark's own files.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "21", "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _printed_units(stdout: str) -> dict[str, str]:
    return dict(re.findall(r"^metric (\S+) .* unit=(\S+)", stdout, flags=re.M))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, out = _run(ROOT, "smoke", trace)
        res = _result(out)
        printed = _printed_units(out)
        for m in spec[key]:
            if printed.get(m["name"]) != m["unit"]:
                problems.append(f"trace={trace}: {m['name']} not printed with unit {m['unit']}")
            if res["metrics"].get(m["name"], {}).get("unit") != m["unit"]:
                problems.append(f"trace={trace}: {m['name']} missing from the result line")
        if set(res["metrics"]) != {m["name"] for m in spec[key]}:
            problems.append(f"trace={trace}: result metrics differ from BENCHMARK.json {key}")
        if "fail_frac" not in printed:
            problems.append(f"trace={trace}: fail_frac not printed")
        if code != 0 or not res["correct"] or res["failed"]:
            problems.append(f"trace={trace}: tiny sweep did not pass: {res}")

    for workload in ("smoke-nonconv", "smoke-raise"):
        code, out = _run(ROOT, workload, 0)
        res = _result(out)
        frac = re.search(r"^metric fail_frac value=(\S+)", out, flags=re.M)
        if code != 0 or res["correct"] or res["failed"] != res["attempted"]:
            problems.append(f"{workload}: expected every run to fail: {res}")
        if frac is None or float(frac.group(1)) != 1.0:
            problems.append(f"{workload}: fail_frac is not 1")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = _run(bare, "sweep2d", 0)
    shutil.rmtree(bare)
    if code == 0 or '"correct"' in out:
        problems.append(f"bare directory: exit {code}, output {out[-200:]!r}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
