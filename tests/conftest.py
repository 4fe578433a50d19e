import pytest

import hodge3d as h

REF_VERTS = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


@pytest.fixture
def ref_tet():
    return h.build_complex(REF_VERTS, [(0, 1, 2, 3)])


@pytest.fixture
def two_tet():
    verts = REF_VERTS + [(1.0, 1.0, 1.0)]
    return h.build_complex(verts, [(0, 1, 2, 3), (1, 2, 3, 4)])


@pytest.fixture(scope="session")
def ball_tiny():
    # 192 tets, 144 boundary faces
    return h.generate_voxel_domain("ball", 0.5)


@pytest.fixture(scope="session")
def ball_coarse():
    # ~1.7k tets
    return h.generate_voxel_domain("ball", 0.25)


@pytest.fixture(scope="session")
def ball_medium():
    # ~3.3k tets
    return h.generate_voxel_domain("ball", 0.2)


@pytest.fixture(scope="session")
def torus_coarse():
    # ~2.3k tets
    return h.generate_voxel_domain("solid_torus", 0.2)


@pytest.fixture(scope="session")
def cavity_coarse():
    # ~1.5k tets; the wider cavity keeps it resolved at this h
    return h.generate_voxel_domain("ball_with_cavity", 0.25, cavity_radius=0.5)


@pytest.fixture(scope="session")
def torus_engine(torus_coarse):
    return h.HodgeDecomposer(torus_coarse)


@pytest.fixture(scope="session")
def ball_engine(ball_coarse):
    return h.HodgeDecomposer(ball_coarse)


@pytest.fixture(scope="session")
def cavity_engine(cavity_coarse):
    return h.HodgeDecomposer(cavity_coarse)
