"""Re-export of :mod:`repro.optics.kernel_dims`, kept only because the
frozen ``bench/fixtures.py`` imports it from here (goes with ROADMAP item 7)."""

from ..optics.kernel_dims import kernel_dimensions

__all__ = ["kernel_dimensions"]
