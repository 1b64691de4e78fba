"""Refined inertias of rational matrices and qualitative sign-pattern analysis.

The package splits into five layers:

* :mod:`refined_inertia.patterns` -- sign patterns, the arrowhead families,
  irreducibility;
* :mod:`refined_inertia.ratpoly` -- exact polynomial arithmetic and root
  counting over the rationals;
* :mod:`refined_inertia.engine` -- refined inertia, exact and numeric;
* :mod:`refined_inertia.realization` -- sampling qualitative classes, the
  arrowhead normal form, witness embedding and deflation, the matrix JSON
  reader;
* :mod:`refined_inertia.analysis` -- witness suites, falsification, lemma
  validators;
* :mod:`refined_inertia.cli` -- the ``riq`` command-line front end.
"""

from .analysis import (
    AnalysisReport,
    LemmaCheck,
    LemmaSuiteReport,
    Verdict,
    WitnessSuite,
    falsify_requires,
    hn_set,
    run_lemma_suite,
    validate_lemmas,
    witness_suite,
)
from .engine import (
    RefinedInertia,
    arrow_shift_det,
    char_poly,
    count_eigen_re_leq,
    det_rational,
    refined_inertia_exact,
    refined_inertia_numeric,
)
from .patterns import (
    Sign,
    SignPattern,
    family_pattern,
    is_irreducible,
    parse_pattern,
    sgn_of_matrix,
)
from .ratpoly import RationalPoly
from .realization import (
    ArrowMatrix,
    RealizationConfig,
    arrow_char_poly,
    deflate_repeated,
    embed_witness,
    matrix_from_json,
    matrix_to_json,
    sample_realization,
    to_arrow_form,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ArrowMatrix",
    "LemmaCheck",
    "LemmaSuiteReport",
    "RationalPoly",
    "RealizationConfig",
    "RefinedInertia",
    "Sign",
    "SignPattern",
    "Verdict",
    "WitnessSuite",
    "arrow_char_poly",
    "arrow_shift_det",
    "char_poly",
    "count_eigen_re_leq",
    "deflate_repeated",
    "det_rational",
    "embed_witness",
    "falsify_requires",
    "family_pattern",
    "hn_set",
    "is_irreducible",
    "matrix_from_json",
    "matrix_to_json",
    "parse_pattern",
    "refined_inertia_exact",
    "refined_inertia_numeric",
    "run_lemma_suite",
    "sample_realization",
    "sgn_of_matrix",
    "to_arrow_form",
    "validate_lemmas",
    "witness_suite",
]
