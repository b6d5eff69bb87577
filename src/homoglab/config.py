"""Experiment configuration: sectioned key-value files -> validated specs.

The file format is INI with sections [ensemble], [integrand], [study],
[solver], [dictionary].  Numbers accept plain floats or fractions like 1/64;
lists are comma separated.  `resolved_text` echoes the full configuration
with every default filled in, which is written next to the outputs and
hashed into the plots' provenance line.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field

from .integrand import FORM_DEGENERATE, FORM_P_DIRICHLET, IntegrandSpec
from .medium import DiscreteValues, EnsembleSpec, UniformValues

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config"]

STUDY_KINDS = ("sweep", "diagram", "nonergodic", "quenched-vs-mean", "cell", "solve")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _num(text: str) -> float:
    text = text.strip()
    if "/" in text:
        a, b = text.split("/")
        value = float(a) / float(b)
    else:
        value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"not a finite number: {text!r}")
    return value


def _num_list(text: str) -> tuple[float, ...]:
    items = [t for t in text.replace(",", " ").split() if t]
    return tuple(_num(t) for t in items)


def _int_list(text: str) -> tuple[int, ...]:
    values = _num_list(text)
    if any(v != round(v) for v in values):
        raise ConfigError(f"not a list of integers: {text!r}")
    return tuple(int(v) for v in values)


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


_DEFAULTS = {
    "ensemble": {
        "dimension": "1",
        "distribution": "discrete",
        "values": "1, 4",
        "probs": "0.5, 0.5",
        "lo": "0",
        "hi": "1",
        "shift_sampling": "true",
        "period": "",
        "seed": "0",
    },
    "integrand": {
        "form": FORM_P_DIRICHLET,
        "p": "2",
        "lambda_distribution": "",
        "lambda_values": "",
        "lambda_probs": "",
        "lambda_lo": "0",
        "lambda_hi": "1",
    },
    "study": {
        "kind": "sweep",
        "eps": "1/8, 1/16, 1/32, 1/64",
        "delta": "",
        "L": "64",
        "n_realizations": "8",
        "load": "1.0",
        "F": "",
        "linkage_tol": "",
        "tol_diagram": "0.05",
        "out": "runs/out",
    },
    "solver": {
        "tol": "",
        "max_iter": "50000",
        "n_per_cell": "8",
        "h_over_eps": "8",
        "fine_n": "",
    },
    "dictionary": {
        "probe_radius": "1",
        "cosine_degree": "3",
        "max_entries": "32",
    },
}

# per-study clustering defaults: empirical minimizer clusters carry Monte
# Carlo spread, exact limit clusters are tight
_LINKAGE_DEFAULTS = {"nonergodic": "0.02", "quenched-vs-mean": "0.05"}


@dataclass
class ExperimentConfig:
    ensemble: EnsembleSpec
    integrand: IntegrandSpec
    kind: str
    eps_list: tuple[float, ...]
    delta_list: tuple[float, ...]
    L_list: tuple[int, ...]
    n_realizations: int
    load: float
    F_grid: tuple[tuple[float, ...], ...]
    linkage_tol: float
    tol_diagram: float
    out_dir: str
    tol: float
    max_iter: int
    n_per_cell: int
    h_over_eps: int
    fine_n: int
    probe_radius: int
    cosine_degree: int
    max_entries: int
    resolved_text: str = field(repr=False, default="")

    @property
    def seed(self) -> int:
        return self.ensemble.seed

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.resolved_text.encode()).hexdigest()[:16]

    def mesh_n(self, eps: float) -> int:
        return max(2, int(round(self.h_over_eps / eps)))


def parse_config(text: str, kind: str | None = None) -> ExperimentConfig:
    """Parse and validate a configuration document.

    A given kind (the CLI subcommand) replaces a valid `[study] kind`, so
    defaults, validation and the resolved echo all follow the study that runs.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keep key case: L and F are meaningful
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    for sec in cp.sections():
        if sec not in _DEFAULTS:
            raise ConfigError(f"unknown section [{sec}]")
        for key in cp[sec]:
            if key not in _DEFAULTS[sec]:
                raise ConfigError(f"unknown key {key!r} in [{sec}]")

    def get(sec: str, key: str) -> str:
        if cp.has_option(sec, key):
            return cp.get(sec, key).strip()
        return _DEFAULTS[sec][key]

    file_kind = get("study", "kind")
    kind = kind or file_kind
    for k in (file_kind, kind):
        if k not in STUDY_KINDS:
            raise ConfigError(f"unknown study kind {k!r}")

    try:
        d = int(get("ensemble", "dimension"))
        dist = get("ensemble", "distribution")
        if dist == "discrete":
            cells = DiscreteValues(
                values=_num_list(get("ensemble", "values")),
                probs=_num_list(get("ensemble", "probs")),
            )
        elif dist == "uniform":
            cells = UniformValues(lo=_num(get("ensemble", "lo")), hi=_num(get("ensemble", "hi")))
        else:
            raise ConfigError(f"unknown distribution {dist!r}")
        period_txt = get("ensemble", "period")
        ensemble = EnsembleSpec(
            dimension=d,
            cells=cells,
            shift_sampling=_bool(get("ensemble", "shift_sampling")),
            period=int(period_txt) if period_txt else None,
            seed=int(get("ensemble", "seed")),
        )

        form = get("integrand", "form")
        lam_spec = None
        if form == FORM_DEGENERATE:
            ldist = get("integrand", "lambda_distribution") or "discrete"
            if ldist == "discrete":
                lam_cells = DiscreteValues(
                    values=_num_list(get("integrand", "lambda_values")),
                    probs=_num_list(get("integrand", "lambda_probs")),
                )
            elif ldist == "uniform":
                lam_cells = UniformValues(
                    lo=_num(get("integrand", "lambda_lo")),
                    hi=_num(get("integrand", "lambda_hi")),
                )
            else:
                raise ConfigError(f"unknown lambda distribution {ldist!r}")
            lam_spec = EnsembleSpec(dimension=d, cells=lam_cells, seed=ensemble.seed)
        integrand = IntegrandSpec(p=_num(get("integrand", "p")), form=form, lambda_cells=lam_spec)

        eps_list = tuple(sorted(_num_list(get("study", "eps")), reverse=True))
        delta_list = tuple(sorted(_num_list(get("study", "delta")), reverse=True))
        L_list = _int_list(get("study", "L"))
        if not eps_list and kind not in ("nonergodic", "cell"):
            raise ConfigError("eps list must not be empty")
        if not L_list:
            raise ConfigError("L list must not be empty")
        if any(e <= 0 for e in eps_list) or any(dl < 0 for dl in delta_list):
            raise ConfigError("eps must be positive and delta nonnegative")
        if any(L < 1 for L in L_list):
            raise ConfigError("L must be >= 1")
        for name, values in (("eps", eps_list), ("delta", delta_list), ("L", L_list)):
            if len(set(values)) != len(values):
                raise ConfigError(f"repeated entry in the {name} list")
        if kind == "diagram" and 0.0 in delta_list:
            raise ConfigError("a diagram adds the delta = 0 column itself: leave 0 out of delta")
        if ensemble.period is not None and kind in ("sweep", "diagram", "cell"):
            # sweep and diagram solve their cell problems on max(L), cell on every L
            cell_L = L_list if kind == "cell" else (max(L_list),)
            if any(L != ensemble.period for L in cell_L):
                raise ConfigError(
                    f"ensemble period {ensemble.period} conflicts with cell size L = "
                    + ", ".join(str(L) for L in cell_L)
                )
        n_real = int(get("study", "n_realizations"))
        if n_real < 1:
            raise ConfigError("n_realizations must be >= 1")
        if kind == "diagram" and n_real < 2 and any(dl > 0 for dl in delta_list):
            raise ConfigError("a positive delta couples realizations: need n_realizations >= 2")
        F_txt = get("study", "F")
        if F_txt:
            F_grid = tuple(tuple(_num_list(part)) for part in F_txt.split(";") if part.strip())
            if any(len(F) != d for F in F_grid):
                raise ConfigError("each F vector must match the dimension")
        else:
            F_grid = (tuple(1.0 if i == 0 else 0.0 for i in range(d)),)
        link_txt = get("study", "linkage_tol") or _LINKAGE_DEFAULTS.get(kind, "0.02")
        p = integrand.p
        tol_txt = get("solver", "tol")
        tol = _num(tol_txt) if tol_txt else (1e-8 if p == 2.0 else 1e-6)
        fine_txt = get("solver", "fine_n")
        fine_n = int(fine_txt) if fine_txt else (256 if d == 1 else 128)

        cfg = ExperimentConfig(
            ensemble=ensemble,
            integrand=integrand,
            kind=kind,
            eps_list=eps_list,
            delta_list=delta_list,
            L_list=L_list,
            n_realizations=n_real,
            load=_num(get("study", "load")),
            F_grid=F_grid,
            linkage_tol=_num(link_txt),
            tol_diagram=_num(get("study", "tol_diagram")),
            out_dir=get("study", "out"),
            tol=tol,
            max_iter=int(get("solver", "max_iter")),
            n_per_cell=int(get("solver", "n_per_cell")),
            h_over_eps=int(get("solver", "h_over_eps")),
            fine_n=fine_n,
            probe_radius=int(get("dictionary", "probe_radius")),
            cosine_degree=int(get("dictionary", "cosine_degree")),
            max_entries=int(get("dictionary", "max_entries")),
        )
    except ConfigError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc
    for bad, message in (
        (cfg.tol <= 0, "tol must be positive"),
        (cfg.n_per_cell < 4, "n_per_cell must be >= 4"),
        (cfg.max_iter < 1, "max_iter must be >= 1"),
        (cfg.fine_n < 2, "fine_n must be >= 2"),
        (cfg.h_over_eps < 1, "h_over_eps must be >= 1"),
        (cfg.tol_diagram <= 0, "tol_diagram must be positive"),
        (cfg.linkage_tol < 0, "linkage_tol must be >= 0"),
        (cfg.probe_radius < 0, "[dictionary] probe_radius must be >= 0"),
        (cfg.cosine_degree < 0, "[dictionary] cosine_degree must be >= 0"),
        # the constant entry is always built
        (cfg.max_entries < 1, "[dictionary] max_entries must be >= 1"),
    ):
        if bad:
            raise ConfigError(message)

    cfg.resolved_text = _resolved_text(cp, cfg)
    return cfg


def _resolved_text(cp: configparser.ConfigParser, cfg: ExperimentConfig) -> str:
    out = configparser.ConfigParser()
    out.optionxform = str
    for sec, keys in _DEFAULTS.items():
        out[sec] = {}
        for key, default in keys.items():
            if cp.has_option(sec, key):
                out[sec][key] = cp.get(sec, key)
            else:
                out[sec][key] = default
    out["study"]["kind"] = cfg.kind
    if not cp.has_option("study", "linkage_tol"):
        out["study"]["linkage_tol"] = repr(cfg.linkage_tol)
    if not cp.has_option("solver", "tol"):
        out["solver"]["tol"] = repr(cfg.tol)
    if not cp.has_option("solver", "fine_n"):
        out["solver"]["fine_n"] = str(cfg.fine_n)
    buf = io.StringIO()
    out.write(buf)
    return buf.getvalue()


def load_config(path: str, kind: str | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), kind)
