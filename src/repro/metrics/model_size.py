"""Model-size accounting used by the Table I comparison."""

from __future__ import annotations

from ..nn.layers import Module


def parameter_count(model) -> int:
    """Scalar parameter count of a model (complex parameters count as two scalars)."""
    if isinstance(model, Module):
        return model.num_parameters()
    if hasattr(model, "num_parameters"):
        return int(model.num_parameters())
    raise TypeError(f"cannot count parameters of {type(model).__name__}")


def model_size_mb(model, bytes_per_scalar: int = 4) -> float:
    """Parameter storage in megabytes assuming ``bytes_per_scalar`` (default float32)."""
    if bytes_per_scalar <= 0:
        raise ValueError("bytes_per_scalar must be positive")
    return parameter_count(model) * bytes_per_scalar / (1024 * 1024)
