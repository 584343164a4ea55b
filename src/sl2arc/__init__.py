"""Trace polynomials, SL(2,R) representation arcs, and holonomy loci."""

from .words import Word, WordSyntaxError, commutator, evaluate, invert, parse_word
from .tracepoly import TracePolynomial, trace_polynomial
from .sl2 import (
    Conjugacy,
    ConjugatorResult,
    ContinuityError,
    Mat2,
    MatClass,
    classify,
    eigen_data,
    same_trace_conjugacy,
    solve_conjugator,
    solve_conjugators,
    translation_number_by_iteration,
    translation_numbers_along_arc,
)
from .pretzel import (
    Assertion,
    CurveAnalysis,
    FamilyInstance,
    LemmaReport,
    LinPresentation,
    analyze_curve,
    gradient_at,
    hessian_at,
    image_closed_forms,
    jacobian_closed_form,
    kernel_closed_form,
    lin_presentation,
    make_family,
    outside_row_span,
    verify_lemma,
)
from .arc import (
    Arc,
    ContinuationError,
    GluedRepresentation,
    GluingError,
    RepSample,
    continue_arc,
    glue_hnn,
    irreducibility_margin,
)
from .locus import (
    LocusArc,
    LocusError,
    LocusPoint,
    csv_text,
    emit_csv,
    emit_svg,
    locus_points,
    orderable_interval,
    orderable_interval_of_points,
    peripheral_point_pair,
    svg_text,
)

__version__ = "0.1.0"
