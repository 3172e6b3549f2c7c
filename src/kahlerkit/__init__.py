"""Numerical differential geometry for Calabi-type Kahler metrics and their twists.

Everything is chart-based: a manifold is a coordinate box, a tensor field is a
callable evaluated on second-order jets of the coordinates, and every geometric
statement is checked pointwise on deterministic samples.
"""

from kahlerkit.jets import Jet2, SamplePlan, sample_points

__all__ = ["Jet2", "SamplePlan", "sample_points"]

__version__ = "0.1.0"
