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
"""

from .words import Alphabet, Word, cylinder_image, multiply, sphere
from .system import (FormTuple, MatrixSystem, NormalizationResult, compatibility_residual,
                     decompose, normalize, radical_quotient, spherical_system,
                     transfer_apply, validate)
from .multrep import (MultVector, RepSpace, act, coefficient, covariance_check,
                      cylinder_op, deepen, inner)
from .subgroups import (CosetTable, FiniteGroup, SchreierData, coset_table_from_quotient,
                        rewrite_to_subgroup, schreier)
from .induce import (InducedLayout, InducedVector, induce_system,
                     induced_action, induced_boundary_op, induced_inner,
                     intertwiner_J)
from .vfree import FreeProduct, VFGroupDatum, induce_to_vf, psl2z_datum, vf_validate
from .boundary_measure import (CylinderMeasure, HerzResult, herz_check,
                               no_harish_chandra_demo, quasi_regular_coefficient,
                               spectral_measure, uniform_measure)

__version__ = "0.1.0"
