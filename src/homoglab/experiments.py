"""Desk-scale convergence studies with CSV/SVG outputs.

Four studies:
  sweep            quenched minimizations against the homogenized reference
  diagram          variance-regularization commutative diagram corners
  nonergodic       per-realization limits of a periodized ensemble + clusters
  quenched-vs-mean per-realization pairing trajectories vs the mean and limit

plus the operation commands cell / solve.  Every study and command hands all
of its independent work to `_imap`, one process pool: the (eps, seed) tasks
and, beside them, the limit side (`_limit_task`: the reference coefficient,
the homogenized solve and its limit pairing; the diagram's corners are limit
tasks without a pairing), the own-limit tasks, or the cell tables.  Every
aggregation is an ordered reduction over the task list, one `_record` per
task result, so outputs are byte-identical for any worker count.
"""

from __future__ import annotations

import math
import os
import sys
import time
import warnings
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

import numpy as np

from .config import ConfigError, ExperimentConfig
from .integrand import IntegrandSpec, moment_estimate, verify_growth
from .medium import DiscreteValues, EnsembleSpec, sample_realization
from .meshing import DiscreteField, build_mesh, lp_distance
from .reporting import (
    CELL_HEADER,
    PAIRING_HEADER,
    RATES_HEADER,
    REPORT_HEADER,
    TIMING_HEADER,
    YOUNG_HEADER,
    ReportRow,
    render_loglog_svg,
    write_csv,
)
from .solver import MinimizeResult, assemble_energy, cell_problem, effective_integrand, minimize
from .twoscale import (
    Dictionary,
    PairingVector,
    _average_pairings,
    build_dictionary,
    empirical_young_measure,
    limit_pairing,
    metric_distance,
    quenched_pairing,
    sample_correctors,
)

__all__ = [
    "StudyReport",
    "run_homogenization_sweep",
    "run_regularization_diagram",
    "run_nonergodic_study",
    "run_quenched_vs_mean",
    "run_cell_table",
    "run_solve",
    "emit_plots",
    "write_outputs",
]


@dataclass
class StudyReport:
    """Everything a study produced, ready for CSV/SVG emission."""

    kind: str
    rows: list[ReportRow] = field(default_factory=list)
    rate_rows: list[list] = field(default_factory=list)
    pairing_rows: list[list] = field(default_factory=list)
    young_rows: list[list] = field(default_factory=list)
    cell_rows: list[list] = field(default_factory=list)
    timing_rows: list[list] = field(default_factory=list)
    realization_rows: list[list] = field(default_factory=list)
    series: dict[str, tuple[tuple[float, ...], tuple[float, ...]]] = field(default_factory=dict)
    summary: dict[str, float | int | str | bool] = field(default_factory=dict)
    any_nonconverged: bool = False


def _log_realizations(rep: StudyReport, cfg: ExperimentConfig) -> None:
    """Record derived seeds and offsets so every run is reconstructible."""
    for i in range(cfg.n_realizations):
        r = sample_realization(cfg.ensemble, i)
        rep.realization_rows.append(
            [i, r.seed, " ".join(repr(y) for y in r.offset), r.period]
        )


def _log_growth(rep: StudyReport, cfg: ExperimentConfig, n: int = 2000) -> None:
    g = verify_growth(cfg.integrand, cfg.ensemble, n)
    rep.summary.update(
        growth_c_low=g.c_low, growth_c_high=g.c_high, satisfies_p_growth=g.satisfies_growth
    )


def _call(task):
    fn, payload = task
    return fn(payload)


def _imap(tasks: list, threads: int) -> Iterator:
    """Run (fn, payload) tasks, yielding the results in list order.

    The pool hands tasks out in list order, one to each worker as it becomes
    free; with one worker (or one task) they run in-process, in order, each
    when its result is asked for, and no pool module is imported.  A caller
    that reduces each result as it comes never holds them all.  Closing the
    iterator, or a task that raises, ends the pool once the tasks already
    running finish: no queued task starts.
    """
    # the pool starts all its workers up front: never more than there are tasks
    workers = min(threads or 1, len(tasks))
    if workers <= 1:
        for fn, payload in tasks:
            yield fn(payload)
        return
    # the pool stack (multiprocessing, sockets, selectors, logging) loads only
    # here, just before the workers fork
    from concurrent.futures import ProcessPoolExecutor
    from queue import SimpleQueue
    from threading import RLock

    waiting = deque(tasks)
    submitted = SimpleQueue()  # futures in list order
    lock = RLock()  # a callback of an already finished future runs at once
    ex = ProcessPoolExecutor(max_workers=workers)

    def feed(done=None):
        # the executor moves submitted tasks into its call queue, up to
        # workers + 1 of them, where cancel() no longer reaches them: submit
        # one task per free worker, and none after a failure
        with lock:
            if done is not None and (done.cancelled() or done.exception() is not None):
                waiting.clear()
            if waiting:
                fut = ex.submit(_call, waiting.popleft())
                submitted.put(fut)
                fut.add_done_callback(feed)

    try:
        for _ in range(workers):
            feed()
        for _ in tasks:
            yield submitted.get().result()
    finally:
        with lock:
            waiting.clear()
        ex.shutdown(cancel_futures=True)


def _record(rep: StudyReport, label: str, res: dict) -> None:
    """The timing row and convergence flag of one task result."""
    rep.timing_rows.append([rep.kind, label, res["wall_ms"]])
    rep.any_nonconverged |= not res["converged"]


def _quenched_row(rep: StudyReport, res: dict, L: int, **columns) -> None:
    """The report row of one quenched task result, with the study's own
    columns, and its `_record`."""
    rep.rows.append(
        ReportRow(
            study=rep.kind,
            eps=res["eps"],
            delta=0.0,
            L=L,
            seed=str(res["seed"]),
            min_energy=res["min_energy"],
            iters=res["iters"],
            grad_norm=res["grad_norm"],
            **columns,
        )
    )
    _record(rep, f"eps={res['eps']:g},seed={res['seed']}", res)


def _young_rows(rep: StudyReport, ym) -> None:
    """One row per barycenter entry of each Young-measure cluster."""
    for ci, cluster in enumerate(ym.clusters):
        for j, val in enumerate(cluster.barycenter.values):
            rep.young_rows.append([ci, cluster.weight, cluster.diameter, j + 1, val])


def _least_squares(rows: list[list[float]], rhs: list[float]) -> tuple[list[float], float]:
    """Least-squares solution of a small system (a few unknowns) and its
    residual sum of squares, by Householder QR in plain floats: no LAPACK.

    The residual is 0.0 when there are no more equations than unknowns; an
    unknown whose pivot falls below numpy's lstsq cutoff is set to 0.
    """
    m, k = len(rows), len(rows[0])
    a = [list(row) + [b] for row, b in zip(rows, rhs)]  # [A | b], reduced in place
    for j in range(k):
        norm = math.hypot(*(a[i][j] for i in range(j, m)))
        if norm == 0.0:
            continue
        alpha = -math.copysign(norm, a[j][j])
        v = [a[j][j] - alpha] + [a[i][j] for i in range(j + 1, m)]
        vv = math.fsum(x * x for x in v)
        for c in range(j, k + 1):
            f = 2.0 * math.fsum(x * a[j + i][c] for i, x in enumerate(v)) / vv
            for i, x in enumerate(v):
                a[j + i][c] -= f * x
    cutoff = max(m, k) * sys.float_info.epsilon * max(abs(a[j][j]) for j in range(k))
    x = [0.0] * k
    for j in reversed(range(k)):
        if abs(a[j][j]) > cutoff:
            x[j] = (a[j][k] - math.fsum(a[j][c] * x[c] for c in range(j + 1, k))) / a[j][j]
    return x, math.fsum(a[i][k] ** 2 for i in range(k, m))


def _median(values: list[float]) -> float:
    """np.median of a list of floats, bit for bit, without the numpy.ma
    import that np.median's first call costs."""
    if any(math.isnan(v) for v in values):
        return math.nan
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def _fit_rate(eps: list[float], vals: list[float]) -> tuple[float, float]:
    """Least-squares slope of log(val) vs log(eps) and the fit residual."""
    pairs = [(e, v) for e, v in zip(eps, vals) if v > 0]
    if len(pairs) < 2:
        return float("nan"), float("nan")
    rows = [[math.log(e), 1.0] for e, _ in pairs]
    (slope, _), res = _least_squares(rows, [math.log(v) for _, v in pairs])
    return slope, math.sqrt(res / len(pairs))


def _cell_task(payload):
    """The effective-integrand table of one (L, F grid, delta), with the
    study's realizations, cell resolution and solver settings."""
    cfg, L, F_grid, delta = payload
    return effective_integrand(
        cfg.ensemble,
        L,
        cfg.integrand,
        F_grid,
        delta=delta,
        n_samples=cfg.n_realizations,
        n_per_cell=cfg.n_per_cell,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
    )


def _homogenized_solve(cfg: ExperimentConfig, c_hom: float) -> MinimizeResult:
    """Fine-mesh minimization of the constant-coefficient limit problem."""
    mesh = build_mesh(cfg.ensemble.dimension, cfg.fine_n)
    hom_ens = EnsembleSpec(
        dimension=cfg.ensemble.dimension,
        cells=DiscreteValues((c_hom,), (1.0,)),
        shift_sampling=False,
        seed=cfg.seed,
    )
    hom_V = IntegrandSpec(p=cfg.integrand.p)
    r = sample_realization(hom_ens, 0)
    E = assemble_energy([r], 1.0, mesh, hom_V, load=cfg.load)
    return minimize(E, tol=min(cfg.tol, 1e-10), max_iter=cfg.max_iter)


def _check_resolution(cfg: ExperimentConfig, force: bool) -> None:
    if cfg.h_over_eps < 4 and not force:
        raise ConfigError("mesh rule leaves h > eps/4; rerun with --force to override")


def _dictionary(cfg: ExperimentConfig) -> Dictionary:
    return build_dictionary(
        cfg.ensemble,
        cfg.probe_radius,
        cfg.cosine_degree,
        cfg.integrand.p,
        max_entries=cfg.max_entries,
    )


def _quenched_task(payload):
    """Minimize along one fixed realization, then pair the minimizer with the
    dictionary (no pairing without one).  The nodal minimizer is returned
    only when asked for (the sweep's L^p distance)."""
    cfg, eps, index, dico, include_gradient, nodal = payload
    t0 = time.perf_counter()
    r = sample_realization(cfg.ensemble, index)
    mesh = build_mesh(cfg.ensemble.dimension, cfg.mesh_n(eps))
    E = assemble_energy([r], eps, mesh, cfg.integrand, load=cfg.load)
    res = minimize(E, tol=cfg.tol, max_iter=cfg.max_iter)
    del E  # the pairing does not need the energy's element arrays
    u = res.fields[0]
    out = {
        "eps": eps,
        "seed": index,
        "min_energy": res.energy,
        "iters": res.iterations,
        "grad_norm": res.grad_norm,
        "converged": res.converged,
    }
    if nodal:
        out["nodal"] = u.values
    if dico is not None:
        pv = quenched_pairing(u, r, eps, dico, include_gradient=include_gradient)
        out.update(values=pv.values, norm=pv.norm)
    out["wall_ms"] = (time.perf_counter() - t0) * 1e3
    return out


def _quenched_tasks(
    cfg: ExperimentConfig, dico: Dictionary | None, include_gradient=False, nodal=False
) -> list:
    """One quenched task per (eps, realization), eps-major from the coarsest
    eps: the order in which the studies reduce them."""
    return [
        (_quenched_task, (cfg, eps, i, dico, include_gradient, nodal))
        for eps in cfg.eps_list
        for i in range(cfg.n_realizations)
    ]


def _limit_task(payload):
    """The mean side of a study at penalty delta: c_hom from the reference
    cell problems and the homogenized solve, then, given a dictionary, the
    limit pairing.  mode "gradient" pairs against the sampled correctors too
    (the quenched-vs-mean limit); the diagram's corners pass no dictionary.
    The fine-mesh homogenized field is returned only when asked for (the
    sweep's L^p distance)."""
    cfg, dico, mode, delta, nodal = payload
    t0 = time.perf_counter()
    csets = None
    if mode == "gradient":
        csets = sample_correctors(
            cfg.ensemble,
            max(cfg.L_list),
            cfg.integrand,
            n_samples=cfg.n_realizations,
            n_per_cell=cfg.n_per_cell,
            tol=cfg.tol,
            max_iter=cfg.max_iter,
        )
    # the isotropic effective coefficient from unit-direction cell problems:
    # V_hom(F) ~= (c_hom / p) |F|^p
    d, p = cfg.ensemble.dimension, cfg.integrand.p
    rows = _cell_task((cfg, max(cfg.L_list), [tuple(np.eye(d)[c]) for c in range(d)], delta))
    c_hom = float(np.mean([r.mean for r in rows])) * p
    hom = _homogenized_solve(cfg, c_hom)
    out = {
        "c_hom": c_hom,
        "c_hom_stderr": float(np.sqrt(np.mean([r.stderr**2 for r in rows]))) * p,
        "min_hom": hom.energy,
        "converged": all(x.converged for x in [*rows, *(csets or ()), hom]),
    }
    if nodal:
        out["u_hom"] = hom.fields[0]
    if dico is not None:
        out["limit"] = limit_pairing(hom.fields[0], dico, mode=mode, corrector_sets=csets)
    out["wall_ms"] = (time.perf_counter() - t0) * 1e3
    return out


def _pairing_vector(res: dict, dico: Dictionary) -> PairingVector:
    """The quenched pairing of a task result, against the parent's dictionary."""
    return PairingVector(
        values=res["values"],
        eps=res["eps"],
        norm=res["norm"],
        tag=str(res["seed"]),
        dico=dico,
        blocks=len(res["values"]) // len(dico),
    )


# ---------------------------------------------------------------- sweep ----


def run_homogenization_sweep(
    cfg: ExperimentConfig, threads: int = 1, force: bool = False
) -> StudyReport:
    """Quenched minimizations across eps against the homogenized reference."""
    _check_resolution(cfg, force)
    rep = StudyReport(kind="sweep")
    _log_realizations(rep, cfg)
    _log_growth(rep, cfg)
    dico = _dictionary(cfg)
    tasks = [(_limit_task, (cfg, dico, "function", 0.0, True))]
    tasks += _quenched_tasks(cfg, dico, nodal=True)
    # each quenched result is reduced as it comes, so the nodal minimizers of
    # one eps are never all held at once
    with closing(_imap(tasks, threads)) as results:
        return _sweep_report(rep, cfg, dico, results)


def _sweep_report(
    rep: StudyReport, cfg: ExperimentConfig, dico: Dictionary, results: Iterator[dict]
) -> StudyReport:
    """The sweep's rows, rates and summary from its task results: the limit
    task's first, then the quenched ones eps-major, as `_quenched_tasks` lists them."""
    ref = next(results)
    u_hom, min_hom, lim = ref["u_hom"], ref["min_hom"], ref["limit"]
    _record(rep, "reference", ref)
    rep.summary.update(c_hom=ref["c_hom"], c_hom_stderr=ref["c_hom_stderr"], min_hom=min_hom)

    gap_med, dist_med = [], []
    for eps in cfg.eps_list:
        mesh = build_mesh(cfg.ensemble.dimension, cfg.mesh_n(eps))
        hom_values = u_hom.eval(mesh.barycenters)  # shared by the realizations
        gaps, dists = [], []
        for res in islice(results, cfg.n_realizations):
            u = DiscreteField(mesh=mesh, values=res["nodal"])
            gap = abs(res["min_energy"] - min_hom)
            dlp = lp_distance(u, hom_values, cfg.integrand.p)
            gaps.append(gap)
            dists.append(dlp)
            _quenched_row(
                rep,
                res,
                max(cfg.L_list),
                energy_gap=gap,
                dist_lp=dlp,
                dist_pairing=metric_distance(_pairing_vector(res, dico), lim),
            )
        gap_med.append(_median(gaps))
        dist_med.append(_median(dists))
    rate, resid = _fit_rate(list(cfg.eps_list), gap_med)
    rep.rate_rows.append(["sweep", "median_energy_gap", rate, resid])
    rate2, resid2 = _fit_rate(list(cfg.eps_list), dist_med)
    rep.rate_rows.append(["sweep", "median_lp_distance", rate2, resid2])
    rep.series["median energy gap"] = (cfg.eps_list, tuple(gap_med))
    rep.series["median Lp distance"] = (cfg.eps_list, tuple(dist_med))
    rep.summary["gap_monotone"] = all(
        gap_med[i + 1] <= gap_med[i] + 1e-15 for i in range(len(gap_med) - 1)
    )
    return rep


# -------------------------------------------------------------- diagram ----


def _diagram_task(payload):
    cfg, eps, delta = payload
    t0 = time.perf_counter()
    reals = [sample_realization(cfg.ensemble, i) for i in range(cfg.n_realizations)]
    mesh = build_mesh(cfg.ensemble.dimension, cfg.mesh_n(eps))
    E = assemble_energy(reals, eps, mesh, cfg.integrand, load=cfg.load, delta=delta)
    res = minimize(E, tol=cfg.tol, max_iter=cfg.max_iter)
    return {
        "eps": eps,
        "delta": delta,
        "min_energy": res.energy,
        "iters": res.iterations,
        "grad_norm": res.grad_norm,
        "converged": res.converged,
        "wall_ms": (time.perf_counter() - t0) * 1e3,
    }


def _rational_extrapolate(deltas, values) -> float:
    """delta -> 0 limit from a (1,1) rational fit value(d) = (a + b d)/(1 + e d).

    The regularized cell value of a two-phase weight is exactly such a
    rational function of the penalty strength, so three points recover the
    limit; more points are fit by least squares.
    """
    rows = [[1.0, float(d), -float(c) * float(d)] for d, c in zip(deltas, values)]
    sol, _ = _least_squares(rows, [float(c) for c in values])
    return sol[0]


def run_regularization_diagram(
    cfg: ExperimentConfig, threads: int = 1, force: bool = False
) -> StudyReport:
    """Evaluate the four corners of the regularization diagram at finite proxies.

    Path one sends delta -> 0 at finite eps (decoupled solves), then eps -> 0;
    path two homogenizes at fixed delta (regularized cell formula), then sends
    delta -> 0 by extrapolating down the delta list.  The two ends must agree
    within the configured tolerance; summary key paths_agree records whether
    rel_disagreement <= tol_diagram.
    """
    _check_resolution(cfg, force)
    if not cfg.delta_list:
        raise ConfigError("diagram study needs a nonempty delta list")
    rep = StudyReport(kind="diagram")
    _log_realizations(rep, cfg)
    _log_growth(rep, cfg)
    if cfg.integrand.degenerate:
        mom = moment_estimate(cfg.integrand.lambda_cells, cfg.integrand.p, 20_000)
        rep.summary.update(moment=mom.value, moment_stderr=mom.stderr, moment_diverging=mom.diverging)
        if mom.diverging:
            warnings.warn(
                "inverse-moment estimate did not stabilize; continuing as a stress test"
            )

    deltas = list(cfg.delta_list) + [0.0]
    # the homogenized corners (eps = 0) of each delta first, their rows last
    tasks = [(_limit_task, (cfg, None, None, dl, False)) for dl in deltas]
    tasks += [(_diagram_task, (cfg, eps, dl)) for eps in cfg.eps_list for dl in deltas]
    out = _imap(tasks, threads)
    corners = list(islice(out, len(deltas)))
    results = list(out)
    for res in results:
        rep.rows.append(
            ReportRow(
                study="diagram",
                eps=res["eps"],
                delta=res["delta"],
                L=max(cfg.L_list),
                seed="mean",
                min_energy=res["min_energy"],
                iters=res["iters"],
                grad_norm=res["grad_norm"],
            )
        )
        _record(rep, f"eps={res['eps']:g},delta={res['delta']:g}", res)

    c_by_delta = {}
    for dl, res in zip(deltas, corners):
        c_by_delta[dl] = (res["c_hom"], res["min_hom"])
        rep.rows.append(
            ReportRow(
                study="diagram",
                eps=0.0,
                delta=dl,
                L=max(cfg.L_list),
                seed="hom",
                min_energy=res["min_hom"],
            )
        )
        _record(rep, f"hom,delta={dl:g}", res)

    eps_min = min(cfg.eps_list)
    delta_min = min(cfg.delta_list)
    path_eps_route = next(
        r["min_energy"] for r in results if r["eps"] == eps_min and r["delta"] == 0.0
    )
    # delta -> 0 along the homogenized column: extrapolate when the list
    # supports it, otherwise take the smallest delta
    if len(cfg.delta_list) >= 3:
        c_star = _rational_extrapolate(
            list(cfg.delta_list), [c_by_delta[dl][0] for dl in cfg.delta_list]
        )
        c_floor = min(c_by_delta[dl][0] for dl in cfg.delta_list)
        if not (0.0 < c_star <= c_floor + 1e-12):
            c_star = c_by_delta[delta_min][0]
        hom = _homogenized_solve(cfg, c_star)
        path_hom_route = hom.energy
        rep.any_nonconverged |= not hom.converged
    else:
        c_star = c_by_delta[delta_min][0]
        path_hom_route = c_by_delta[delta_min][1]
    ref = c_by_delta[0.0][1]
    disagreement = abs(path_eps_route - path_hom_route)
    rel_disagreement = disagreement / abs(ref) if ref else float("inf")
    rep.summary.update(
        path_delta_then_eps=path_eps_route,
        path_eps_then_delta=path_hom_route,
        c_extrapolated=c_star,
        min_hom=ref,
        disagreement=disagreement,
        rel_disagreement=rel_disagreement,
        # a statistical check (sampling error of the realizations), reported
        # and mapped to the CLI's exit code 2 rather than raised
        paths_agree=rel_disagreement <= cfg.tol_diagram,
        c_monotone=all(
            c_by_delta[a][0] >= c_by_delta[b][0] - 1e-12
            for a, b in zip(deltas, deltas[1:])
        ),
    )
    for dl in cfg.delta_list:
        xs, ys = [], []
        for res in results:
            if res["delta"] == dl:
                xs.append(res["eps"])
                ys.append(abs(res["min_energy"] - c_by_delta[dl][1]))
        rep.series[f"|minE(eps,{dl:g}) - minE(hom,{dl:g})|"] = (tuple(xs), tuple(ys))
    return rep


# ------------------------------------------------------------ nonergodic ----


def _own_limit_task(payload):
    """Realization i's own limit: the cell problem on its fundamental cell,
    the homogenized solve and the limit pairing against its torus averages.
    The row's energy, iterations and gradient norm are the homogenized
    solve's."""
    cfg, dico, i = payload
    t0 = time.perf_counter()
    r = sample_realization(cfg.ensemble, i)
    res = cell_problem(
        r,
        cfg.ensemble.period,
        cfg.integrand,
        np.eye(cfg.ensemble.dimension)[0],
        n_per_cell=cfg.n_per_cell,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
    )
    hom = _homogenized_solve(cfg, cfg.integrand.p * res.value)
    return {
        "seed": i,
        "min_hom": hom.energy,
        "iters": hom.iterations,
        "grad_norm": hom.grad_norm,
        "limit": limit_pairing(hom.fields[0], dico, mode="function", realizations=[r]),
        "converged": res.converged and hom.converged,
        "wall_ms": (time.perf_counter() - t0) * 1e3,
    }


def run_nonergodic_study(cfg: ExperimentConfig, threads: int = 1, force: bool = False) -> StudyReport:
    """Cluster per-realization limits of a periodized (nonergodic) ensemble.

    Demonstrates the omega-dependent limit: with distinct fundamental cells
    the empirical Young measure keeps more than one cluster, unlike the
    ergodic case.
    """
    _check_resolution(cfg, force)
    if cfg.ensemble.period is None:
        raise ConfigError("nonergodic study needs an ensemble with a periodization length")
    rep = StudyReport(kind="nonergodic")
    _log_realizations(rep, cfg)
    dico = _dictionary(cfg)
    n = cfg.n_realizations
    tasks = [(_own_limit_task, (cfg, dico, i)) for i in range(n)] + _quenched_tasks(cfg, dico)
    results = _imap(tasks, threads)
    limits = {}
    for res in islice(results, n):
        key = str(res["seed"])
        limits[key] = res["limit"]
        rep.rows.append(
            ReportRow(
                study="nonergodic",
                eps=0.0,
                delta=0.0,
                L=cfg.ensemble.period,
                seed=key,
                min_energy=res["min_hom"],
                iters=res["iters"],
                grad_norm=res["grad_norm"],
            )
        )
        _record(rep, f"limit,seed={key}", res)

    trajectories: dict[str, list[PairingVector]] = {str(i): [] for i in range(n)}
    for res in results:
        key = str(res["seed"])
        pv = _pairing_vector(res, dico)
        trajectories[key].append(pv)
        _quenched_row(rep, res, cfg.ensemble.period, dist_pairing=metric_distance(pv, limits[key]))
    ym_limit = empirical_young_measure({k: [v] for k, v in limits.items()}, cfg.linkage_tol)
    ym = empirical_young_measure(trajectories, cfg.linkage_tol) if cfg.eps_list else ym_limit
    _young_rows(rep, ym)
    rep.summary.update(
        n_clusters=ym.n_clusters,
        n_clusters_limit=ym_limit.n_clusters,
        weights=",".join(f"{w:g}" for w in ym.weights),
        min_separation=ym.min_separation,
        max_cauchy_defect=max(ym.cauchy_defects.values()),
    )
    if cfg.eps_list:
        xs = cfg.eps_list
        med = []
        for eps in xs:
            med.append(
                _median(
                    [
                        row.dist_pairing
                        for row in rep.rows
                        if row.eps == eps and row.dist_pairing is not None
                    ]
                )
            )
        rep.series["median distance to own limit"] = (xs, tuple(med))
    return rep


# -------------------------------------------------------- quenched vs mean ----


def run_quenched_vs_mean(cfg: ExperimentConfig, threads: int = 1, force: bool = False) -> StudyReport:
    """Compare quenched pairing trajectories with the mean and limit pairings."""
    _check_resolution(cfg, force)
    if cfg.ensemble.period is not None:
        raise ConfigError("quenched-vs-mean study needs the ergodic (unperiodized) ensemble")
    rep = StudyReport(kind="quenched-vs-mean")
    _log_realizations(rep, cfg)
    dico = _dictionary(cfg)
    tasks = [(_limit_task, (cfg, dico, "gradient", 0.0, False))]
    tasks += _quenched_tasks(cfg, dico, include_gradient=True)
    with closing(_imap(tasks, threads)) as results:
        return _quenched_vs_mean_report(rep, cfg, dico, results)


def _quenched_vs_mean_report(
    rep: StudyReport, cfg: ExperimentConfig, dico: Dictionary, results: Iterator[dict]
) -> StudyReport:
    """The quenched-vs-mean rows and summary from its task results, reduced
    as they come (see `_sweep_report`)."""
    L = max(cfg.L_list)
    mean = next(results)
    min_hom, lim = mean["min_hom"], mean["limit"]
    _record(rep, "limit", mean)
    rep.summary.update(c_hom=mean["c_hom"], min_hom=min_hom)

    trajectories: dict[str, list[PairingVector]] = {str(i): [] for i in range(cfg.n_realizations)}
    mean_trajectory: list[PairingVector] = []
    mean_dists, max_q_dists = [], []
    contraction_ok = True
    for eps in cfg.eps_list:
        vecs = []
        for res in islice(results, cfg.n_realizations):
            pv = _pairing_vector(res, dico)
            vecs.append(pv)
            trajectories[str(res["seed"])].append(pv)
            _quenched_row(
                rep,
                res,
                L,
                energy_gap=abs(res["min_energy"] - min_hom),
                dist_pairing=metric_distance(pv, lim),
            )
            _pairing_rows(rep, dico, res["seed"], eps, pv.values)
        mean_vec = _average_pairings(vecs, eps)
        mean_trajectory.append(mean_vec)
        dm = metric_distance(mean_vec, lim)
        dq_max = max(metric_distance(v, lim) for v in vecs)
        contraction_ok &= dm <= dq_max + 1e-15
        mean_dists.append(dm)
        max_q_dists.append(dq_max)
        rep.rows.append(
            ReportRow(
                study="quenched-vs-mean",
                eps=eps,
                delta=0.0,
                L=L,
                seed="mean",
                dist_pairing=dm,
            )
        )
        _pairing_rows(rep, dico, "mean", eps, mean_vec.values)
    _pairing_rows(rep, dico, "limit", 0.0, lim.values)

    ym = empirical_young_measure(trajectories, cfg.linkage_tol)
    _young_rows(rep, ym)
    mean_cauchy = max(
        (metric_distance(a, b) for a, b in zip(mean_trajectory, mean_trajectory[1:])),
        default=0.0,
    )
    max_cauchy = max(ym.cauchy_defects.values())
    rep.summary.update(
        n_clusters=ym.n_clusters,
        cluster_diameter=max(c.diameter for c in ym.clusters),
        barycenter_to_limit=metric_distance(ym.clusters[0].barycenter, lim),
        mean_contraction_ok=contraction_ok,
        max_cauchy_defect=max_cauchy,
        mean_cauchy_defect=mean_cauchy,
        mean_cauchy_ok=mean_cauchy <= max_cauchy + 1e-15,
    )
    rep.series["distance(mean, limit)"] = (cfg.eps_list, tuple(mean_dists))
    rep.series["max distance(quenched, limit)"] = (cfg.eps_list, tuple(max_q_dists))
    return rep


def _phi_label(dico: Dictionary, flat_j: int) -> str:
    J = len(dico)
    block, j = divmod(flat_j, J)
    suffix = "" if block == 0 else f"@g{block}"
    return dico.entries[j].phi_id + suffix


def _pairing_rows(rep: StudyReport, dico: Dictionary, tag, eps: float, values) -> None:
    """One pairings.csv row per entry of a pairing vector."""
    for j, val in enumerate(values):
        rep.pairing_rows.append([tag, eps, j + 1, _phi_label(dico, j), val])


# ------------------------------------------------- operation commands ----


def run_cell_table(cfg: ExperimentConfig, threads: int = 1, force: bool = False) -> StudyReport:
    """Tabulate the effective integrand over (F, L, delta)."""
    rep = StudyReport(kind="cell")
    deltas = list(cfg.delta_list) if cfg.delta_list else [0.0]
    tasks = [(_cell_task, (cfg, L, cfg.F_grid, dl)) for L in cfg.L_list for dl in deltas]
    for rows in _imap(tasks, threads):
        for r in rows:
            rep.cell_rows.append(
                [
                    " ".join(repr(c) for c in r.F),
                    r.L,
                    r.delta,
                    None,
                    cfg.seed,
                    r.mean,
                    r.stderr,
                    r.iterations,
                    r.grad_norm,
                    r.wall_ms,
                ]
            )
            _record(rep, f"L={r.L},delta={r.delta:g}", vars(r))
    if len(cfg.L_list) > 1:
        for dl in deltas:
            xs = tuple(float(L) for L in cfg.L_list)
            ys = []
            for L in cfg.L_list:
                sub = [
                    float(row[5])
                    for row in rep.cell_rows
                    if row[1] == L and row[2] == dl
                ]
                ys.append(float(np.mean(sub)))
            rep.series[f"mean value, delta={dl:g}"] = (xs, tuple(ys))
    return rep


def run_solve(cfg: ExperimentConfig, threads: int = 1, force: bool = False) -> StudyReport:
    """Minimize the configured oscillatory energy per (eps, seed)."""
    _check_resolution(cfg, force)
    rep = StudyReport(kind="solve")
    L = max(cfg.L_list)
    for res in _imap(_quenched_tasks(cfg, None), threads):
        eps, i, wall = res["eps"], res["seed"], res["wall_ms"]
        row = [None, L, 0.0, eps, i, res["min_energy"], None, res["iters"], res["grad_norm"], wall]
        rep.cell_rows.append(row)
        _record(rep, f"eps={eps:g},seed={i}", res)
    return rep


_RUNNERS = {
    "sweep": run_homogenization_sweep,
    "diagram": run_regularization_diagram,
    "nonergodic": run_nonergodic_study,
    "quenched-vs-mean": run_quenched_vs_mean,
    "cell": run_cell_table,
    "solve": run_solve,
}


def run_study(cfg: ExperimentConfig, threads: int = 1, force: bool = False) -> StudyReport:
    try:
        runner = _RUNNERS[cfg.kind]
    except KeyError:
        raise ConfigError(f"no runner for study kind {cfg.kind!r}")
    return runner(cfg, threads=threads, force=force)


# ------------------------------------------------------------- outputs ----


def emit_plots(rep: StudyReport, out_dir: str, provenance: str) -> list[str]:
    """Write one log-log SVG per series group; skip silently when empty."""
    if not rep.series:
        return []
    plots_dir = os.path.join(out_dir, "plots")
    os.makedirs(plots_dir, exist_ok=True)
    ylabel = {
        "sweep": "energy gap / Lp distance",
        "diagram": "energy alignment",
        "nonergodic": "metric distance",
        "quenched-vs-mean": "metric distance",
        "cell": "effective value",
    }.get(rep.kind, "value")
    xlabel = "L" if rep.kind == "cell" else "eps"
    series = []
    for label, (xs, ys) in rep.series.items():
        pts = [(x, y) for x, y in zip(xs, ys) if y > 0]
        if pts:
            series.append((label, [p[0] for p in pts], [p[1] for p in pts]))
    if not series:
        return []
    svg = render_loglog_svg(series, f"{rep.kind} study", xlabel, ylabel, provenance)
    path = os.path.join(plots_dir, f"{rep.kind}.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return [path]


def write_outputs(rep: StudyReport, cfg: ExperimentConfig, out_dir: str) -> list[str]:
    """Persist report.csv (deterministic), side tables, config echo, and plots."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def put(name, header, rows):
        p = os.path.join(out_dir, name)
        write_csv(p, header, rows)
        paths.append(p)

    if rep.rows:
        put("report.csv", REPORT_HEADER, [r.cells() for r in rep.rows])
    if rep.rate_rows:
        put("rates.csv", RATES_HEADER, rep.rate_rows)
    if rep.pairing_rows:
        put("pairings.csv", PAIRING_HEADER, rep.pairing_rows)
    if rep.young_rows:
        put("young.csv", YOUNG_HEADER, rep.young_rows)
    if rep.cell_rows:
        put("cell.csv", CELL_HEADER, rep.cell_rows)
    if rep.timing_rows:
        put("timings.csv", TIMING_HEADER, rep.timing_rows)
    if rep.realization_rows:
        put("realizations.csv", ["index", "seed", "offset", "period"], rep.realization_rows)
    resolved = os.path.join(out_dir, "config.resolved")
    with open(resolved, "w", encoding="utf-8") as fh:
        fh.write(cfg.resolved_text)
    paths.append(resolved)
    if rep.summary:
        summary = os.path.join(out_dir, "summary.txt")
        with open(summary, "w", encoding="utf-8") as fh:
            for key in sorted(rep.summary):
                fh.write(f"{key} = {rep.summary[key]}\n")
        paths.append(summary)
    provenance = f"config={cfg.config_hash} seed={cfg.seed}"
    paths.extend(emit_plots(rep, out_dir, provenance))
    return paths
