"""The LightDP baseline (Zhang & Kifer, POPL 2017).

Section 7 of the paper: *"LightDP is a restricted form of ShadowDP where
the shadow execution is never used (i.e., when the selector always picks
the aligned execution)."*  The baseline is therefore implemented as
exactly that restriction — :func:`check_lightdp` rejects any program
whose sampling annotations can select the shadow version, and otherwise
defers to the ShadowDP checker in aligned-only mode.

This makes the paper's expressiveness claim executable: Report Noisy Max
has **no** aligned-only annotation that both type checks and verifies
(``tests/verify/test_regimes.py::TestLightDPBaseline``), while the
Sparse Vector and sum families go through unchanged.
"""

from __future__ import annotations


from repro.core.checker import CheckedProgram, TypeChecker
from repro.lang import ast

#: Verification seconds reported by Albarghouthi & Hsu's coupling-proof
#: synthesiser on the shared benchmarks (paper Table 1, right column;
#: quoted — their system is closed and takes minutes per algorithm).
COUPLING_VERIFIER_SECONDS = {
    "noisy_max": 22.0,
    "svt_n1": 27.0,
    "svt": 580.0,
    "num_svt_n1": 4.0,
    "num_svt": 5.0,
    "gap_svt": None,  # N/A — the variant is novel to this paper
    "partial_sum": 14.0,
    "prefix_sum": 14.0,
    "smart_sum": 255.0,
}

#: Which of the case studies LightDP can handle at the tight budget
#: (paper Sections 1 and 7).
LIGHTDP_SUPPORTED = {
    "noisy_max": False,
    "svt": True,
    "num_svt": True,
    "gap_svt": True,
    "partial_sum": True,
    "prefix_sum": True,
    "smart_sum": True,
}


def check_lightdp(function: ast.FunctionDef) -> CheckedProgram:
    """Type check under the LightDP restriction.

    Raises :class:`~repro.core.errors.ShadowDPTypeError` with reason
    ``lightdp-shadow`` when the program's annotations need the shadow
    execution.
    """
    return TypeChecker(function, lightdp_mode=True).check()
