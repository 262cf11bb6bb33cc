"""Mask analysis: :func:`layer_density_table`, a per-layer density summary for reports."""

from __future__ import annotations

from repro.sparse.masked import MaskedModel

__all__ = ["layer_density_table"]


def layer_density_table(masked: MaskedModel) -> list[dict]:
    """Per-layer density/size/non-zero rows, plus a global summary row."""
    rows = []
    for target in masked.targets:
        rows.append({
            "layer": target.name,
            "shape": "x".join(str(d) for d in target.param.shape),
            "size": target.size,
            "nnz": target.active_count,
            "density": round(target.density, 4),
        })
    rows.append({
        "layer": "TOTAL",
        "shape": "-",
        "size": masked.total_size,
        "nnz": masked.total_active,
        "density": round(masked.global_density(), 4),
    })
    return rows
