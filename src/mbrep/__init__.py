"""Multiplicative boundary representations of free and virtually free groups.

Submodules: ``words`` (reduced-word combinatorics, the geodesic cones of a
word and the images of cylinders, each given by its stem word), ``system``
(matrix systems, normalization, decomposition), ``multrep`` (vectors, the
unitary action, matrix coefficients, boundary operators), ``subgroups``
(coset tables and Schreier data), ``induce`` (block induction and the
intertwiner), ``vfree`` (free products of finite cyclic groups),
``boundary_measure`` (spectral measures and the majorization check),
``fileio`` (the JSON file formats) and ``cli``.  Everything computes in
double precision: exact entries of a system file load as floats, and the
exact Q(sqrt(k)) oracle and the other literal oracles live with the tests.

The root imports no submodule, so ``python -m mbrep.cli`` reaches ``cli``
before numpy loads: import names from the submodules.
"""

__version__ = "0.1.0"
