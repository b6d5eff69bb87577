"""Exact discrete minimizers of the 1D energies, by flux integration.

Test oracles, independent of the lab's minimizers.  On a 1D P1 mesh the
Euler-Lagrange equations integrate once: the element flux
sigma_e = dW/dg (g_e) changes only by the nodal load.  Each solve is then
one monotone scalar root (scipy's brentq) for the free flux constant, and
the minimal energy is evaluated on the resulting admissible field, so a
root error enters it only to second order.
"""

import numpy as np
from scipy.optimize import brentq


def _psi_inverse(s, p):
    """Inverse of t -> |t|^(p-2) t."""
    return np.sign(s) * np.abs(s) ** (1.0 / (p - 1.0))


def _root(fun, lo, hi):
    """The root of a nondecreasing scalar function on [lo, hi]."""
    if lo == hi:
        return lo
    return brentq(fun, lo, hi, xtol=1e-300, maxiter=500)


def dirichlet_energy(a, f, p, h):
    """min over P1 u with u = 0 at both ends of
    sum_e h (a_e / p) |u'_e|^p - sum_i b_i u_i,
    with b_i = h (f_{i-1} + f_i) / 2 at the interior node i between the
    elements i-1 and i (element weights `a`, element loads `f`, in order).

    Stationarity at node i gives sigma_{i-1} - sigma_i = b_i, so
    sigma_e = sigma_0 - (b_1 + ... + b_e); the zero trace asks sum_e g_e = 0,
    which is increasing in sigma_0 and changes sign on [min c, max c] for the
    cumulative loads c.
    """
    a, f = np.asarray(a, dtype=float), np.asarray(f, dtype=float)
    b = 0.5 * h * (f[:-1] + f[1:])
    c = np.concatenate([[0.0], np.cumsum(b)])

    def slopes(s0):
        return _psi_inverse((s0 - c) / a, p)

    s0 = _root(lambda s: float(slopes(s).sum()), c.min(), c.max())
    u = h * np.cumsum(slopes(s0))[:-1]  # interior nodes
    g = np.diff(np.concatenate([[0.0], u, [0.0]])) / h
    return float(h * np.sum(a * np.abs(g) ** p) / p - b @ u)


def cell_energy(a, F, p, delta=0.0):
    """min over periodic P1 phi of the element average of
    (a_e / p) |F + phi'_e|^p + delta |phi'_e|^p on the 1D torus.

    delta = 0 has the closed form <a^(-1/(p-1))>^(-(p-1)) |F|^p / p.
    Otherwise the flux sigma = a psi(F + g) + delta p psi(g), psi(t) = |t|^(p-2) t,
    is one constant on every element: each distinct weight gets its slope g
    by a root inside [0, psi^-1(sigma / a) - F], and the outer root in sigma
    makes the slopes average to zero.
    """
    a = np.asarray(a, dtype=float)
    if delta == 0.0:
        m = np.mean(a ** (-1.0 / (p - 1.0)))
        return float(m ** (1.0 - p) * abs(F) ** p / p)
    vals, counts = np.unique(a, return_counts=True)

    def psi(t):
        return np.sign(t) * np.abs(t) ** (p - 1.0)

    def slope(ak, s):
        g_a = float(_psi_inverse(s / ak, p)) - F
        lo, hi = min(0.0, g_a), max(0.0, g_a)
        return _root(lambda g: ak * psi(F + g) + delta * p * psi(g) - s, lo, hi)

    def slopes(s):
        return np.array([slope(ak, s) for ak in vals])

    end = vals * psi(F)
    s = _root(lambda s: float(counts @ slopes(s)), end.min(), end.max())
    g = slopes(s)
    g -= (counts @ g) / counts.sum()  # admissible: the slopes of a periodic field
    dens = vals * np.abs(F + g) ** p / p + delta * np.abs(g) ** p
    return float(counts @ dens / counts.sum())
