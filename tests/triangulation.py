"""The uniform box as a general mesh code stores it, built by explicit loops.

Test oracle for the grid code in `homoglab.meshing`, which keeps no
connectivity: node coordinates, element connectivity and the boundary mask,
read off the mesh's grid parameters (dimension, n, size) only.  Nodes are
numbered ix + (n+1) iy; elements per square (1D: per interval), row-major,
a square's lower triangle (v00, v10, v11) before its upper one
(v00, v11, v01), where vab is the node (ix + a, iy + b).
"""

import numpy as np


def triangulation(mesh):
    """(nodes (n_nodes, d), elements (n_elements, d + 1), boundary (n_nodes,))."""
    n, h = mesh.n, mesh.size / mesh.n
    nodes, elements, boundary = [], [], []
    if mesh.dimension == 1:
        for ix in range(n + 1):
            nodes.append([ix * h])
            boundary.append(ix in (0, n))
        for ix in range(n):
            elements.append([ix, ix + 1])
    else:
        for iy in range(n + 1):
            for ix in range(n + 1):
                nodes.append([ix * h, iy * h])
                boundary.append(ix in (0, n) or iy in (0, n))
        for iy in range(n):
            for ix in range(n):
                v00 = ix + (n + 1) * iy
                v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
                elements.append([v00, v10, v11])
                elements.append([v00, v11, v01])
    return np.array(nodes, dtype=float), np.array(elements), np.array(boundary)
