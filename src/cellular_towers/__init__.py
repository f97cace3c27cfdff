"""Exact cellular bases for towers of diagram algebras.

Constructs Murphy-type cellular bases, indexed by paths on branching
diagrams, for algebra towers obtained by iterated Jones basic
constructions: Brauer, Birman-Murakami-Wenzl, Temperley-Lieb and
partition algebras, with the Iwahori-Hecke tower as the quotient data.
All arithmetic is exact (integer Laurent polynomials and their fraction
fields); every structural claim is verified by rank certificates.
"""

from ._kernel import KERNEL
from .coeff import (
    DELTA,
    LaurentFraction,
    LaurentPoly,
    Q,
    RationalFunction,
    Z,
    delta_eliminate,
    specialize,
)
from .framework import (
    a_hat,
    branching_closed_form,
    branching_recursive,
    c_lambda_l,
    cell_paths,
    cellular_basis,
    dimension_identity,
    e_power,
    path_element,
    restriction_filtration_a,
    verify_cell_datum,
    verify_framework_axioms,
)
from .towers import tower

__version__ = "0.1.0"

__all__ = [
    "KERNEL",
    "LaurentPoly",
    "LaurentFraction",
    "RationalFunction",
    "specialize",
    "delta_eliminate",
    "Q",
    "Z",
    "DELTA",
    "tower",
    "a_hat",
    "cell_paths",
    "e_power",
    "c_lambda_l",
    "branching_closed_form",
    "branching_recursive",
    "path_element",
    "cellular_basis",
    "verify_cell_datum",
    "verify_framework_axioms",
    "restriction_filtration_a",
    "dimension_identity",
    "__version__",
]
