"""Exact cellular bases for towers of diagram algebras.

Constructs Murphy-type cellular bases, indexed by paths on branching
diagrams, for algebra towers obtained by iterated Jones basic
constructions: Brauer, Birman-Murakami-Wenzl, Temperley-Lieb and
partition algebras, with the Iwahori-Hecke tower as the quotient data.
All arithmetic is exact (integer Laurent polynomials and their fraction
fields); every structural claim is verified by rank certificates.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec


def _lazy_submodule(name):
    """Register the submodule `name` so that its code runs on its first
    attribute access: a run that never touches it never compiles it."""
    spec = find_spec(f"{__name__}.{name}")
    loader = LazyLoader(spec.loader)
    spec.loader = loader
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    globals()[name] = module
    loader.exec_module(module)


# only the diagram towers and BMW run diagrams, and only BMW runs bmw
_lazy_submodule("diagrams")
_lazy_submodule("bmw")

from ._kernel import KERNEL  # noqa: E402
from .coeff import (  # noqa: E402
    DELTA,
    LaurentFraction,
    LaurentPoly,
    Q,
    Z,
    delta_eliminate,
)
from .framework import (  # noqa: E402
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
from .towers import tower  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "KERNEL",
    "LaurentPoly",
    "LaurentFraction",
    "RationalFunction",
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


def __getattr__(name):
    # the fallback field loads when first asked for; answering any other
    # name (the import system probes __path__, say) would load it always
    if name == "RationalFunction":
        from .ratfunc import RationalFunction

        return RationalFunction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
