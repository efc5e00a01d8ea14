import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import ddfem


@pytest.fixture(scope="session")
def unit_triangle_mesh():
    """Single reference-shaped triangle, no Dirichlet nodes."""
    return ddfem.Mesh(
        d=2, p=1,
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]]),
        dirichlet=np.zeros(3, dtype=bool),
    )


@pytest.fixture(scope="session")
def two_triangle_square():
    """Unit square cut along the up-diagonal, no Dirichlet nodes."""
    return ddfem.gen_structured_square(1, p=1, dirichlet="none")


def jump_conductivity(mesh, low=1.0, high=1e6):
    """Per-element values jumping at the x = 1/2 plane (element centroids)."""
    centroids = mesh.nodes[mesh.elements].mean(axis=1)
    return ddfem.ConductivityField.from_per_element(
        np.where(centroids[:, 0] < 0.5, low, high))


@pytest.fixture(scope="session")
def quarter_ring_mesh():
    """Fan of triangles between radius 1 and 2, for curved-boundary tests."""
    nodes = []
    for r in (1.0, 2.0):
        for a in range(5):
            ang = np.pi / 2 * a / 4
            nodes.append((r * np.cos(ang), r * np.sin(ang)))
    elements = []
    for a in range(4):
        inner, outer = a, 5 + a
        elements.append((inner, outer, outer + 1))
        elements.append((inner, outer + 1, inner + 1))
    return ddfem.Mesh(
        d=2, p=1,
        nodes=np.array(nodes),
        elements=np.array(elements),
        dirichlet=np.zeros(10, dtype=bool),
    )


def ring_snap(x):
    """Radial projector onto the nearest of the two ring circles."""
    r = float(np.linalg.norm(x))
    if abs(r - 1.0) < 0.05:
        return np.asarray(x) / r
    if abs(r - 2.0) < 0.1:
        return np.asarray(x) / r * 2.0
    return x


def traced_peak(build) -> int:
    """Bytes allocated at the peak of ``build()`` above its start (tracemalloc)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
