"""Native-speed numpy codegen backend for the loop IR.

The interpreter (:mod:`repro.interp.interpreter`) and the trace
generator (:mod:`repro.interp.tracegen`) are the correctness oracles;
this package is the *fast path* proven against them bit for bit by the
differential suite under ``tests/codegen/``.  Two backends share one
lowering of affine references:

:func:`trace_program`
    whole-nest vectorized trace generation — every loop level is
    enumerated as numpy index arrays (no Python work per iteration),
    guards split instance frames by membership masks, and the per-step
    stream is tiled across time steps.  It is the one production trace
    path: the harness, the CLI and the multicore interleaver all call
    it;
:func:`run_program`
    vectorized execution — each loop nest picks one legal
    vectorization axis (proved free of cross-instance dependences) and
    evaluates statements as batched float64 ops that replay the
    interpreter's operation order exactly.

Both fall back cleanly — per top-level nest (tracing) or per loop
(execution) — to the interpreter-based oracle for any construct outside
the supported subset, recording ``codegen.*`` fallback metrics so the
degradation is observable (and lintable, code S401).
"""

from .executor import CodegenExecutor, plan_execution, run_program
from .lowering import CodegenUnsupported, int_affine, trace_fingerprint
from .plan import CodegenPlan, plan_program
from .tracer import trace_program

__all__ = [
    "CodegenExecutor",
    "CodegenPlan",
    "CodegenUnsupported",
    "int_affine",
    "plan_execution",
    "plan_program",
    "run_program",
    "trace_fingerprint",
    "trace_program",
]
