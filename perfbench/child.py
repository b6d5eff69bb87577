"""One repetition of a workload in a fresh interpreter; spawned by run.py.

Does what the CLI does (parse_config -> run_study -> write_outputs) and
writes a JSON result file.  The parent measures set-up time as the span from
spawning this process to `t_ready`, read on the shared monotonic clock just
before run_study.  Modes:
  setup  stop at t_ready
  run    the study, untraced
  trace  the study with spans around every public layer function
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _capture_cell_problems(records: list) -> None:
    """Keep each cell problem's realization and result for the bracket check."""
    from homoglab import solver
    from tracing import rebind

    inner = solver.cell_problem

    def capture(r, L, integrand, F, *args, **kwargs):
        res = inner(r, L, integrand, F, *args, **kwargs)
        records.append((r, L, integrand.p, tuple(float(c) for c in F), res))
        return res

    rebind({inner: capture})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = ap.parse_args(argv)

    import homoglab.config
    import homoglab.experiments

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()
    t_parse = time.perf_counter()
    cfg = homoglab.config.parse_config(text)
    parse_s = time.perf_counter() - t_parse
    cells: list = []
    if cfg.kind == "cell":
        _capture_cell_problems(cells)
    ru = resource.getrusage(resource.RUSAGE_SELF)
    out = {"t_ready": time.monotonic(), "cpu_ready_s": ru.ru_utime + ru.ru_stime, "tol": cfg.tol}
    code = 0
    if args.mode == "setup":
        out["versions"] = _versions()
    else:
        try:
            t0 = time.perf_counter()
            rep = homoglab.experiments.run_study(cfg, threads=args.threads)
            paths = homoglab.experiments.write_outputs(rep, cfg, args.out)
            out["wall_s"] = time.perf_counter() - t0
        except Exception:  # any failure of the study is a failed run
            out["error"] = traceback.format_exc()
            code = 1
        else:
            out["any_nonconverged"] = bool(rep.any_nonconverged)
            out["bytes_written"] = sum(os.path.getsize(p) for p in paths)
            out["cells"] = _cell_records(cells, cfg)
        if tracer is not None:
            out["trace"] = {
                "layers": tracer.summary(),
                "overhead_s": tracer.overhead_s,
                "top_level_s": tracer.top_level_s(),
                "self_sum_s": tracer.self_sum_s(),
                "outer_s": out.get("wall_s", 0.0) + parse_s,
                "unbound": tracer.unbound(),
                "spans": len(tracer.spans),
            }
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "trace_spans.json"), "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _cell_records(cells: list, cfg) -> list[dict]:
    from checks import cell_bracket

    recs = []
    for r, L, p, F, res in cells:
        lower, upper = cell_bracket(r, L, p, F, cfg.n_per_cell)
        recs.append(
            {
                "seed": r.seed,
                "F": " ".join(repr(c) for c in F),
                "value": res.value,
                "converged": bool(res.converged),
                "lower": lower,
                "upper": upper,
            }
        )
    return recs


if __name__ == "__main__":
    sys.exit(main())
