"""Nodal fields read off closed-form functions, and their discrete L^p norm.

Test helpers: the library makes its fields by solves and compares them with
`homoglab.meshing.lp_distance`; tests also need fields given in closed form
and the plain norm of one field.
"""

import numpy as np

from homoglab.meshing import DiscreteField


def from_function(mesh, fn):
    """The P1 field (zero-trace kind) with nodal values fn(mesh.nodes)."""
    return DiscreteField(mesh=mesh, values=np.asarray(fn(mesh.nodes), dtype=float))


def lp_norm(u, p):
    """Discrete L^p norm of a field by its mesh's barycenter quadrature."""
    return float(np.dot(u.mesh.volumes, np.abs(u.at_barycenters()) ** p)) ** (1.0 / p)
