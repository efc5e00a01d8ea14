"""K, Kbar and the element matrices against the averaging, int64 oracles.

The builders fill int32 triplets and mirror each element matrix's upper
triangle in place; the oracles in ``oracles.py`` average each block with its
transpose and gather int64 triplets.  Every value, index and dtype must agree
bit for bit, and the builders' scratch memory is bounded.
"""

import numpy as np
import pytest

import ddfem
from ddfem import assembly, dd_approx

from conftest import traced_peak
from oracles import (
    averaged_tensor_stiffness,
    coo_mirrored_csr,
    int64_star_triplets,
    int64_stiffness_triplets,
)

MESHES = {
    "square-p1": lambda: ddfem.gen_structured_square(6, p=1),
    "square-p2": lambda: ddfem.gen_structured_square(5, p=2),
    "cube-p1": lambda: ddfem.gen_structured_cube(3, p=1),
    "cube-p2": lambda: ddfem.gen_structured_cube(3, p=2),
    "sheared-square-p1": lambda: ddfem.transform_mesh(
        ddfem.gen_structured_square(8, p=1),
        lambda x: np.array([x[0] + 4.0 * x[1], x[1]])),
    "cube-p2-dirichlet-none": lambda: ddfem.gen_structured_cube(
        2, p=2, dirichlet="none"),
    # m = 1296 and 2058: K is summed from three and five element chunks.
    "cube-p2-chunks": lambda: ddfem.gen_structured_cube(6, p=2),
    "cube-p1-chunks": lambda: ddfem.gen_structured_cube(7, p=1),
}


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(MESHES))
def test_builders_match_averaging_int64_oracles(name):
    mesh = MESHES[name]()
    system = ddfem.build_system(
        mesh, ddfem.ConductivityField.from_expression("1 + 3*x*y + 100*(x > 0.5)"))
    geom, rule = system.geometries, system.rule
    want = averaged_tensor_stiffness(geom.inverse_transposes, geom.dets,
                                     geom.theta_vals, rule.weights,
                                     system.tables[1])
    assert_bitwise(system.element_stiffness, want)
    n = mesh.n_free
    inc = system.incidence
    for got, triplets in (
            (system.stiffness, int64_stiffness_triplets(n, mesh.elements, want)),
            (system.kbar, int64_star_triplets(inc.arcs, system.dbar, inc.l))):
        ref = coo_mirrored_csr(n, *triplets)
        for field in ("indptr", "indices", "data"):
            assert_bitwise(getattr(got, field), getattr(ref, field))


# Peaks on cube k=4 p=2 (m=384, n=343), in bytes: element_stiffness 474992,
# build_kbar 207336.  Averaging each block with its transpose peaked at
# 889488, and int64 Kbar triplets at 308024.  assemble_global computes the
# element blocks itself, in chunks: on cube k=6 p=2 (m=1296, three chunks)
# it peaks at 1765379, and at 2289536 when it computes the whole stack at
# once.
PEAK_BOUNDS_MIB = {"element_stiffness": 0.60, "assemble_global": 1.90,
                   "build_kbar": 0.25}


def test_builder_scratch_memory_is_bounded():
    mesh = ddfem.gen_structured_cube(4, p=2)
    system = ddfem.build_system(mesh)
    incidence, dbar = system.incidence, system.dbar
    chunked = ddfem.build_system(ddfem.gen_structured_cube(6, p=2))
    assert chunked.mesh.n_elements > 2 * assembly.ASSEMBLY_CHUNK
    peaks = {
        "element_stiffness": traced_peak(lambda: assembly.element_stiffness(
            system.geometries, system.ref, system.rule, tables=system.tables)),
        "assemble_global": traced_peak(lambda: assembly.assemble_global(
            chunked.mesh, chunked.geometries, chunked.ref, chunked.rule,
            tables=chunked.tables)),
        "build_kbar": traced_peak(lambda: dd_approx.build_kbar(incidence, dbar)),
    }
    over = {name: peak for name, peak in peaks.items()
            if peak > PEAK_BOUNDS_MIB[name] * 2 ** 20}
    assert not over
