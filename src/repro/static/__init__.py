"""Static symbolic reuse analysis — the trace-free locality engine.

Computes per-reference reuse-distance polynomials, predicted histograms
and miss counts, evadable-reuse classification, and predictive locality
lints directly from the loop IR, with no interpretation and no trace
(Razzak et al., *Static Reuse Profile Estimation for Array
Applications*; Zhu et al., *Fully Symbolic Analysis of Loop Locality*;
paper §2.1).

Layering: depends on ``lang``, ``locality`` (result types only), ``obs``
and ``verify`` (diagnostics); nothing here imports the interpreter.
"""

from .coherence import (
    ArraySharing,
    CoherenceProfile,
    SharingWitness,
    analyze_coherence,
)
from .dependence_test import attainable, lane_conflict, solve_sum
from .lints import lint_profile, lint_static
from .model import LoopCtx, StaticModel, StaticRef, build_model
from .multicore import (
    MulticorePrediction,
    predict_multicore,
    predict_program_multicore,
)
from .parallelism import (
    AxisVerdict,
    ParallelismProfile,
    RaceWitness,
    analyze_parallelism,
    bind_params,
)
from .poly import Poly
from .profile import EvaluatedClass, StaticProfile, analyze_program
from .regions import Hull, footprint_by_array, ref_hull, union_hulls
from .reuse import ClassProfile, Component, attribute_model, solve_delta
from .schedule import (
    parse_schedule,
    preserves_affinity,
    schedule_assignments,
    schedule_chunks,
    thread_span,
)

__all__ = [
    "ArraySharing",
    "AxisVerdict",
    "CoherenceProfile",
    "SharingWitness",
    "ClassProfile",
    "Component",
    "EvaluatedClass",
    "Hull",
    "LoopCtx",
    "MulticorePrediction",
    "ParallelismProfile",
    "Poly",
    "RaceWitness",
    "StaticModel",
    "StaticProfile",
    "StaticRef",
    "analyze_coherence",
    "analyze_parallelism",
    "analyze_program",
    "attainable",
    "attribute_model",
    "bind_params",
    "build_model",
    "footprint_by_array",
    "lane_conflict",
    "lint_profile",
    "lint_static",
    "parse_schedule",
    "predict_multicore",
    "predict_program_multicore",
    "preserves_affinity",
    "ref_hull",
    "schedule_assignments",
    "schedule_chunks",
    "solve_delta",
    "thread_span",
    "union_hulls",
]
