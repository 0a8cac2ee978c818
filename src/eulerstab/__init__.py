"""Exact Eulerian polynomial families, brute-force descent oracles, and
Hurwitz stability / interlacing certification, all in rational arithmetic.

The public names below are imported from their layer on first use (PEP 562),
so that `import eulerstab.cli` loads only the layers a command runs.
"""

import importlib

_EXPORTS = {
    "eulerian": (
        "FAMILIES",
        "ConsistencyError",
        "FamilyId",
        "HalfPair",
        "ZigzagTable",
        "affine_b",
        "eulerian_a",
        "eulerian_b",
        "eulerian_d",
        "family_polynomial",
        "half_b",
        "half_d",
        "zigzag",
    ),
    "lab": (
        "BracketError",
        "MonotonicityError",
        "ThresholdBracket",
        "VerificationReport",
        "apply_stability_operator",
        "conjectured_threshold",
        "critical_k",
        "default_distinct_grid",
        "default_k_grid",
        "distinct_root_boundaries",
        "operator_symbol_check",
        "padded_stability_source",
        "scan_distinct_roots",
        "stability_family",
        "verify_d_affine_b",
        "verify_family_stability",
        "verify_half_reciprocal",
        "verify_identities",
    ),
    "oracle": (
        "BudgetExceededError",
        "distribution",
    ),
    "polynomial": ("NEG_INFINITY", "Polynomial", "interleave", "poly_gcd"),
    "stability": (
        "STRICTLY_STABLE",
        "UNSTABLE",
        "WEAKLY_STABLE",
        "HermiteBiehlerEvidence",
        "IsolatedRoot",
        "RootIsolation",
        "StabilityCertificate",
        "SturmChain",
        "approximate_real_roots",
        "hermite_biehler_weakly_stable",
        "hurwitz_determinants",
        "interlaces",
        "is_real_rooted",
        "is_strictly_hurwitz_stable",
        "isolate_real_roots",
        "squarefree_decompose",
        "sturm_chain",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_LAYER_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
