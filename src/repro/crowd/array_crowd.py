"""Another name for the one simulated crowd.

:class:`~repro.crowd.crowd.SimulatedCrowd` answers over a columnar
:class:`~repro.synth.array_population.ArrayPopulation` and over an
explicit population alike. ``ArrayCrowd`` stays importable here and
from :mod:`repro.crowd` only because the benchmark harness constructs
the crowd under this name and probes methods at this module path; it
leaves with the benchmark's next change.
"""

from repro.crowd.crowd import SimulatedCrowd as ArrayCrowd

__all__ = ["ArrayCrowd"]
