"""Helpers shared by the test modules."""

import numpy as np

from trsw.model import CoriolisSpec, Numerics, Scenario, flat_topography


def scenario_of(grid, topography=None, coriolis=CoriolisSpec(0.0),
                numerics=Numerics(), name="test"):
    """A scenario of a grid, bottom (flat by default), rotation and
    numerics, for the kernels and writers that read only those: its
    initial fields are constant."""
    if topography is None:
        topography = flat_topography(grid)
    return Scenario(name=name, grid=grid, coriolis=coriolis,
                    topography=topography, height=np.ones_like,
                    b0=np.ones_like, numerics=numerics)
