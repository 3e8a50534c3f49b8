"""Measurement, verification and batch-sweep utilities.

- :mod:`repro.analysis.verification` — check listing output against
  sequential ground truth.
- :mod:`repro.analysis.complexity` — exponent fits and theory curves.
- :mod:`repro.analysis.sweeps` — the batched sweep runner (grid specs,
  one model table for the paper's drivers and the comparators, JSON
  result cache, multiprocessing fan-out) and the markdown
  ``ExperimentTable``.
- :mod:`repro.analysis.report` — the paper's experiment tables: E1–E4
  declared once as sweep specs (which the E1–E4 benchmarks run too),
  plus E5–E7 and E9.
"""

from repro.analysis.verification import (
    VerificationReport,
    verify_listing,
    verify_partition_bound,
)
from repro.analysis.complexity import fit_exponent, theory_comparison
from repro.analysis.sweeps import RunSpec, SweepResult, SweepSpec, run_sweep

__all__ = [
    "VerificationReport",
    "verify_listing",
    "verify_partition_bound",
    "fit_exponent",
    "theory_comparison",
    "RunSpec",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
]
