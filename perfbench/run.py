"""homoglab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sweep2d --seed 21 --seconds 25 --trace 0

Run from the root of a checkout.  Each repetition is a fresh interpreter
(child.py) doing what the CLI does: parse_config -> run_study ->
write_outputs.  With --trace 0 the run repeats the untraced study until
--seconds have passed (at least MIN_REPS times) and reports the end-to-end
metrics as medians.  With --trace 1 it makes one untraced repetition (for
the parallel efficiency and the output checks) and then traced single-process
repetitions, and reports the per-layer metrics.  Human-readable lines come
first; the last line of stdout is the JSON result.  Outputs go to
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import digest, observables, physics_failures, reference_failures
from workloads import PINNED_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_PROBES = 2  # set-up-only interpreters per run, besides the repetitions
MIN_REPS = 4
RUN_DEADLINE_S = 170.0  # a run must end well inside 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# (metric, unit); the layer metrics printed by a traced run
PER_LAYER = [
    ("solver.minimize.calls", "count"),
    ("solver.minimize.self_s", "s"),
    ("solver.minimize.iters", "count"),
    ("solver.minimize.ms_per_iter", "ms"),
    ("solver.minimize.nonconverged", "count"),
    ("solver.cell_problem.calls", "count"),
    ("solver.cell_problem.self_s", "s"),
    ("solver.cell_problem.iters", "count"),
    ("solver.cell_problem.ms_per_iter", "ms"),
    ("solver.cell_problem.nonconverged", "count"),
    ("solver.cell_problem.unique_frac", "ratio"),
    ("solver.assemble_energy.self_s", "s"),
    ("solver.effective_integrand.self_s", "s"),
    ("twoscale.quenched_pairing.calls", "count"),
    ("twoscale.quenched_pairing.self_s", "s"),
    ("twoscale.build_dictionary.self_s", "s"),
    ("twoscale.limit_pairing.self_s", "s"),
    ("twoscale.sample_correctors.self_s", "s"),
    ("twoscale.empirical_young_measure.self_s", "s"),
    ("twoscale.metric_distance.calls", "count"),
    ("meshing.build_mesh.calls", "count"),
    ("meshing.build_mesh.self_s", "s"),
    ("medium.eval_coefficient.calls", "count"),
    ("medium.eval_coefficient.self_s", "s"),
    ("medium.eval_coefficient.points_per_s", "1/s"),
    ("integrand.verify_growth.self_s", "s"),
    ("integrand.moment_estimate.self_s", "s"),
    ("experiments.run_study.self_s", "s"),
    ("experiments.parallel_eff", "ratio"),
    ("experiments.write_outputs.self_s", "s"),
    ("experiments.bytes_written", "bytes"),
    ("config.parse_config.self_s", "s"),
    ("trace.other_self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _host_sample() -> tuple[float | None, int | None]:
    """1-minute load average and cumulative steal ticks (read only)."""
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            load = float(fh.read().split()[0])
        with open("/proc/stat", encoding="ascii") as fh:
            steal = int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None, None
    return load, steal


class Run:
    """One benchmark run: a workload at a seed, its repetitions and checks."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.t_start = time.monotonic()
        self.work = WORK_DIR / f"{workload}-s{seed}-t{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "config.ini"
        self.config.write_text(self.w.config_text(seed), encoding="utf-8")
        self.reps: list[dict] = []
        self.setup_samples: list[float] = []
        self.digests: set[str] = set()
        self.reference = self._load_reference()

    def _load_reference(self) -> dict | None:
        if not REFERENCE.exists():
            return None
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh).get(self.w.name, {}).get(str(self.seed))

    def env(self, pinned: bool) -> dict:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if pinned:
            env["OPENBLAS_NUM_THREADS"] = "1"
            env["OMP_NUM_THREADS"] = "1"
        return env

    def time_left(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.t_start)

    def spawn(self, mode: str, threads: int, pinned: bool) -> dict:
        """Run child.py once; returns timings, rusage and its result."""
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        cmd = [
            sys.executable,
            str(BENCH_DIR / "child.py"),
            "--config", str(self.config),
            "--out", str(out_dir),
            "--result", str(result_path),
            "--threads", str(threads),
            "--mode", mode,
        ]
        load, steal0 = _host_sample()
        log_path = self.work / "child.log"
        with open(log_path, "w", encoding="utf-8") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env(pinned),
                cwd=str(ROOT), start_new_session=True,
            )
            status, ru, timed_out = self._wait(proc)
        _, steal1 = _host_sample()
        rec = {
            "mode": mode,
            "exit": os.waitstatus_to_exitcode(status),
            "timed_out": timed_out,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "loadavg": load,
            "steal_s": (steal1 - steal0) / os.sysconf("SC_CLK_TCK") if steal0 is not None else None,
            "out_dir": str(out_dir),
        }
        try:
            with open(result_path, encoding="utf-8") as fh:
                rec["result"] = json.load(fh)
        except (OSError, ValueError):
            rec["result"] = {}
        if "t_ready" in rec["result"]:
            rec["setup_s"] = rec["result"]["t_ready"] - t_spawn
        if rec["exit"] != 0 or timed_out:
            rec["log_tail"] = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        return rec

    def _wait(self, proc: subprocess.Popen):
        """Reap the child with its rusage, which covers its reaped workers."""
        timed_out = False
        while True:
            pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if self.time_left() <= 0 and not timed_out:
                timed_out = True
                os.killpg(proc.pid, signal.SIGKILL)
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 and not timed_out:
            # a crashed child may leave pool workers in its session
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return status, ru, timed_out

    def probe_setup(self) -> dict:
        """One warm-up interpreter, then SETUP_PROBES timed ones."""
        pinned = self.w.pin_blas
        first = self.spawn("setup", 1, pinned)
        for _ in range(SETUP_PROBES):
            rec = self.spawn("setup", 1, pinned)
            if "setup_s" in rec:
                self.setup_samples.append(rec["setup_s"])
        return first.get("result", {}).get("versions", {})

    def check(self, rec: dict) -> list[str]:
        """Failures of one repetition; an empty list means it passed."""
        res = rec["result"]
        if rec["timed_out"]:
            return ["timed out"]
        if "error" in res:
            return ["study raised: " + res["error"].strip().splitlines()[-1]]
        if rec["exit"] != 0 or "wall_s" not in res:
            return [f"child exited with {rec['exit']}: {rec.get('log_tail', '')[-300:]}"]
        fails = []
        if res.get("any_nonconverged"):
            fails.append("a solve did not converge (any_nonconverged)")
        out_dir = rec["out_dir"]
        fails += physics_failures(self.w.name, out_dir, res, self.seed)
        if self.reference is not None:
            obs = observables(self.w.name, out_dir, res)
            fails += reference_failures(obs, self.reference["values"], self.reference["tol"])
        d = digest(out_dir)
        rec["digest"] = d[:16]
        if rec["mode"] == "run":
            self.digests.add(d)
            if len(self.digests) > 1:
                fails.append("result table digest differs between repetitions")
        else:
            fails += trace_failures(self, res["trace"])
        return fails

    def repeat(self, mode: str, threads: int, pinned: bool) -> dict:
        rec = self.spawn(mode, threads, pinned)
        rec["failures"] = self.check(rec)
        if "setup_s" in rec:
            self.setup_samples.append(rec["setup_s"])
        self.reps.append(rec)
        res = rec["result"]
        print(
            f"rep {len(self.reps)} {mode} {'ok' if not rec['failures'] else 'FAILED'}"
            f" wall_s={res.get('wall_s')} setup_s={rec.get('setup_s')} cpu_s={rec['cpu_s']:.3f}"
            f" peak_rss_mb={rec['peak_rss_mb']:.1f} loadavg={rec['loadavg']}"
            f" steal_s={rec['steal_s']} digest={rec.get('digest')}"
        )
        for f in rec["failures"]:
            print(f"  check failed: {f}")
        return rec

    def keep_going(self, done: int, minimum: int) -> bool:
        elapsed = time.monotonic() - self.t_start
        walls = [r["result"]["wall_s"] for r in self.reps if "wall_s" in r["result"]]
        est = (statistics.median(walls) if walls else 0.0) + 1.0
        if self.time_left() < 1.5 * est:
            return False
        return done < minimum or elapsed < self.seconds


def _env_record(run: Run, versions: dict) -> dict:
    env = run.env(run.w.pin_blas)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "processes": run.w.processes,
        "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": env.get("OMP_NUM_THREADS", "unset"),
        **versions,
    }


def _print_metric(name: str, unit: str, values: list[float]) -> float:
    q1, med, q3 = _quartiles(values)
    print(f"metric {name} median={med!r} q1={q1!r} q3={q3!r} n={len(values)} unit={unit}")
    return med


def end_to_end(run: Run) -> dict:
    w = run.w
    n = 0
    while run.keep_going(n, MIN_REPS):
        run.repeat("run", w.processes, w.pin_blas)
        n += 1
    timed = [r for r in run.reps if "wall_s" in r["result"]]
    samples = {
        "wall_s": [r["result"]["wall_s"] for r in timed],
        "setup_s": run.setup_samples,
        "cpu_s": [r["cpu_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }
    metrics = {}
    for name, unit in END_TO_END.items():
        if samples[name]:
            metrics[name] = {"value": _print_metric(name, unit, samples[name]), "unit": unit}
    return metrics


def _layer_metrics(trace: dict, parallel_eff: float, bytes_written: float) -> dict:
    layers = trace["layers"]

    def get(label: str, q: str) -> float:
        return layers.get(label, {}).get(q, 0)

    values = {"experiments.parallel_eff": parallel_eff, "experiments.bytes_written": bytes_written}
    listed = set()
    for name, _ in PER_LAYER:
        label, _, q = name.rpartition(".")
        if label in ("experiments", "trace"):
            continue
        listed.add(label)
        if q in ("calls", "self_s", "iters", "nonconverged"):
            values[name] = get(label, q)
        elif q == "ms_per_iter":
            it = get(label, "iters")
            values[name] = 1e3 * get(label, "self_s") / it if it else 0.0
        elif q == "unique_frac":
            calls = get(label, "calls")
            values[name] = get(label, "unique") / calls if calls else 1.0
        elif q == "points_per_s":
            t = get(label, "self_s")
            values[name] = get(label, "points") / t if t else 0.0
    values["trace.other_self_s"] = sum(
        st["self_s"] for label, st in layers.items() if label not in listed
    )
    values["trace.wall_s"] = trace["top_level_s"]
    values["trace.overhead_s"] = trace["overhead_s"]
    return values


def trace_failures(run: Run, trace: dict) -> list[str]:
    """Trace integrity: every call seen, self times add up, counts as expected."""
    fails = []
    if trace["unbound"]:
        fails.append(f"traced functions left unwrapped at {trace['unbound']}")
    outer = trace["outer_s"]
    if abs(trace["self_sum_s"] - outer) > 0.01 * outer:
        fails.append(f"self times sum to {trace['self_sum_s']} s, traced wall is {outer} s")
    if run.seed == PINNED_SEED:
        for label, want in run.w.expected_calls.items():
            got = trace["layers"].get(label, {}).get("calls", 0)
            if got != want:
                fails.append(f"{label} called {got} times, expected {want}")
    return fails


def per_layer(run: Run) -> dict:
    w = run.w
    base = run.repeat("run", w.processes, w.pin_blas)
    res = base["result"]
    parallel_eff = 0.0
    if "wall_s" in res:
        parallel_eff = (base["cpu_s"] - res["cpu_ready_s"]) / (res["wall_s"] * w.processes)
    per_rep = []
    n = 0
    while run.keep_going(n, 1):
        rec = run.repeat("trace", 1, True)
        n += 1
        if "trace" in rec["result"]:
            trace = rec["result"]["trace"]
            per_rep.append(_layer_metrics(trace, parallel_eff, res.get("bytes_written", 0)))
    metrics = {}
    if not per_rep:
        return metrics
    for name, unit in PER_LAYER:
        vals = [m[name] for m in per_rep]
        metrics[name] = {"value": _print_metric(name, unit, vals), "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="homoglab benchmark (see perfbench/NOTES.md)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "homoglab" / "__init__.py").is_file():
        print(f"perfbench: no homoglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("perfbench: need --seed >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    versions = run.probe_setup()
    print("env " + json.dumps(_env_record(run, versions), sort_keys=True))
    if run.reference is None:
        print(f"reference: no record for seed {args.seed}; workload checks only")
    metrics = per_layer(run) if args.trace else end_to_end(run)

    attempted = len(run.reps)
    failed = sum(1 for r in run.reps if r["failures"])
    print(f"metric fail_frac value={failed / max(attempted, 1)!r} unit=ratio ({failed} of {attempted} runs failed)")
    with open(run.work / "run.json", "w", encoding="utf-8") as fh:
        json.dump({"reps": run.reps, "setup_samples": run.setup_samples}, fh, indent=1, default=str)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
