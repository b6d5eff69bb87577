"""Output checks for one study repetition.

`physics_failures` applies the workload's own acceptance checks to the
output directory.  `observables` extracts the computed values that are
compared against perfbench/reference.json, recorded at the commit that
added the benchmark.

Reference tolerance: every solver in homoglab stops on a residual or
gradient criterion relative to the configured `tol`.  A different but
equally valid solver path stops elsewhere inside that criterion.  Energies
and cell values are stationary at the minimizer, so that moves them by
O(tol^2) relative: tightening tol by 10^3 to 10^4 moved every compared value
by at most 8e-15 (p = 2, tol 1e-8) and 4e-10 (p = 1.5, tol 1e-6) relative.
The check allows `tol` relative to the value (at least TOL_FLOOR absolute).
"""

from __future__ import annotations

import csv
import hashlib
import os
import statistics

from workloads import PINNED_SEED

TOL_FLOOR = 1e-12

# diagram1d: rel_disagreement <= 0.05 is acceptance criterion 6, a statistical
# bound met at the pinned seed.  Both diagram paths carry the sampling error
# of 16 realizations: when recorded, |rel| exceeded 0.05 at 14 of the
# seeds 0-30 and reached 0.156 (seed 12).  At other seeds the bound is this
# sanity limit, and the reference match is the sharp check.
DIAGRAM_SAMPLING_BOUND = 0.25

# columns that are timings, not results; left out of the digest
_TIMING_COLUMNS = {"wall_ms"}


def read_summary(out_dir: str) -> dict:
    path = os.path.join(out_dir, "summary.txt")
    out = {}
    if not os.path.exists(path):
        return out
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, text = line.rstrip("\n").partition(" = ")
            if text in ("True", "False"):
                out[key] = text == "True"
                continue
            try:
                out[key] = float(text)
            except ValueError:
                out[key] = text
    return out


def _rows(out_dir: str, name: str) -> list[dict]:
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def result_table(out_dir: str) -> str | None:
    for name in ("report.csv", "cell.csv"):
        if os.path.exists(os.path.join(out_dir, name)):
            return name
    return None


def digest(out_dir: str) -> str:
    """sha256 of report.csv, or of cell.csv without its timing column."""
    name = result_table(out_dir)
    if name is None:
        return ""
    with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, col in enumerate(rows[0]) if col not in _TIMING_COLUMNS]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _median_gap_by_eps(out_dir: str) -> list[tuple[float, float]]:
    by_eps: dict[float, list[float]] = {}
    for row in _rows(out_dir, "report.csv"):
        by_eps.setdefault(float(row["eps"]), []).append(float(row["energy_gap"]))
    return [(eps, statistics.median(v)) for eps, v in sorted(by_eps.items(), reverse=True)]


def _check_sweep2d(out_dir, summary, result, seed):
    fails = []
    c = summary.get("c_hom")
    if not isinstance(c, float) or abs(c - 2.0) >= 0.15:
        fails.append(f"c_hom {c} not within 0.15 of 2")
    gaps = _median_gap_by_eps(out_dir)
    if len(gaps) != 2 or not gaps[1][1] < gaps[0][1]:
        fails.append(f"median energy gap does not shrink with eps: {gaps}")
    return fails


def _check_diagram1d(out_dir, summary, result, seed):
    fails = []
    rel = summary.get("rel_disagreement")
    bound = 0.05 if seed == PINNED_SEED else DIAGRAM_SAMPLING_BOUND
    if not isinstance(rel, float) or not rel <= bound:
        fails.append(f"rel_disagreement {rel} > {bound}")
    if summary.get("c_monotone") is not True:
        fails.append("regularized cell values not monotone in delta")
    return fails


def _check_qvm2d(out_dir, summary, result, seed):
    fails = []
    if summary.get("n_clusters") != 1.0:
        fails.append(f"n_clusters {summary.get('n_clusters')} != 1")
    for key in ("mean_contraction_ok", "mean_cauchy_ok"):
        if summary.get(key) is not True:
            fails.append(f"{key} is not True")
    return fails


def _check_cell2d(out_dir, summary, result, seed):
    fails = []
    cells = result.get("cells") or []
    if not cells:
        fails.append("no cell problem values captured")
    for c in cells:
        tag = f"seed {c['seed']} F {c['F']}"
        if not c["converged"]:
            fails.append(f"cell problem {tag} did not converge")
        slack = 1e-9 * max(1.0, abs(c["upper"]))
        if not c["lower"] - slack <= c["value"] <= c["upper"] + slack:
            fails.append(
                f"cell value {c['value']} for {tag} outside its Reuss-Voigt "
                f"bracket [{c['lower']}, {c['upper']}]"
            )
    return fails


_CHECKS = {
    "sweep2d": _check_sweep2d,
    "diagram1d": _check_diagram1d,
    "qvm2d": _check_qvm2d,
    "cell2d": _check_cell2d,
}

_SUMMARY_VALUES = {
    "sweep2d": ("c_hom", "min_hom"),
    "diagram1d": ("path_delta_then_eps", "path_eps_then_delta", "min_hom"),
    "qvm2d": ("c_hom", "min_hom"),
}


def physics_failures(workload: str, out_dir: str, result: dict, seed: int) -> list[str]:
    check = _CHECKS.get(workload)
    if check is None:
        return []
    return check(out_dir, read_summary(out_dir), result, seed)


def observables(workload: str, out_dir: str, result: dict) -> dict[str, float]:
    """Computed values compared against the reference record."""
    obs = {}
    summary = read_summary(out_dir)
    for key in _SUMMARY_VALUES.get(workload, ()):
        if isinstance(summary.get(key), float):
            obs[key] = summary[key]
    for row in _rows(out_dir, "report.csv"):
        if row["min_energy"]:
            tag = f"{row['study']},eps={row['eps']},delta={row['delta']},seed={row['seed']}"
            obs[f"min_energy[{tag}]"] = float(row["min_energy"])
    for row in _rows(out_dir, "cell.csv"):
        obs[f"value[F={row['F']},L={row['L']},delta={row['delta']}]"] = float(row["value"])
    for c in result.get("cells") or []:
        obs[f"cell_value[seed={c['seed']},F={c['F']}]"] = c["value"]
    return obs


def reference_failures(obs: dict, ref: dict, tol: float) -> list[str]:
    rtol = tol
    fails = []
    if set(obs) != set(ref):
        missing = sorted(set(ref) - set(obs))[:3]
        extra = sorted(set(obs) - set(ref))[:3]
        fails.append(f"reference keys differ: missing {missing}, extra {extra}")
    for key in sorted(set(obs) & set(ref)):
        if abs(obs[key] - ref[key]) > max(rtol * abs(ref[key]), TOL_FLOOR):
            fails.append(f"{key} = {obs[key]!r}, reference {ref[key]!r} (rtol {rtol:g})")
    return fails


def cell_bracket(r, L: int, p: float, F, n_per_cell: int) -> tuple[float, float]:
    """Reuss and Voigt bounds of one realization's cell value at F.

    Both use the coefficient at the barycenters of the cell problem's own
    mesh, which is the field the discrete problem minimizes against:
    <a^(-1/(p-1))>^(-(p-1)) |F|^p / p <= V(F) <= <a> |F|^p / p.
    """
    import numpy as np

    from homoglab.medium import eval_coefficient, periodize
    from homoglab.meshing import build_mesh

    rp = r if r.period is not None else periodize(r, L)
    mesh = build_mesh(r.dimension, n=L * n_per_cell, size=float(L))
    a = np.asarray(eval_coefficient(rp, mesh.barycenters), dtype=float)
    w = mesh.volumes / mesh.volumes.sum()
    fp = float(np.linalg.norm(np.asarray(F, dtype=float))) ** p / p
    upper = float(w @ a) * fp
    lower = float(w @ a ** (-1.0 / (p - 1.0))) ** (-(p - 1.0)) * fp
    return lower, upper
