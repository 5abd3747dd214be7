"""repro — reproduction of "Physics-Informed Optical Kernel Regression Using
Complex-valued Neural Fields" (Nitho, DAC 2023).

Two halves (``docs/architecture.md``): the paper packages import the
production ones, never the reverse, and ``import repro`` loads neither.

Production subpackages
----------------------
``repro.backend``
    Compute-backend seam: the numpy FFT backend and precision policy.
``repro.optics``
    Hopkins / TCC / SOCS partially-coherent imaging (golden simulator) and
    the Eq. (10) kernel-window sizing.
``repro.layout``
    Geometry primitives and windowed layout readers: rasterise arbitrary
    windows of dense rasters, indexed geometry or binary GDSII on demand.
``repro.engine``
    Unified execution layer: batched imaging, the kernel-bank cache,
    guard-banded tiling, out-of-core streaming, sharding over threads.
``repro.sweep`` / ``repro.service``
    Process-window campaigns (resumable stores, zero-recompute reports) and
    the HTTP service that runs them.

Paper subpackages
-----------------
``repro.nn`` / ``repro.core``
    Complex-valued autograd substrate and the Nitho model (encodings, CMLP,
    training).
``repro.masks`` / ``repro.baselines``
    Synthetic benchmark layouts, OPC, datasets; TEMPO- / DOINN-style baselines.
``repro.metrics`` / ``repro.analysis`` / ``repro.experiments``
    Evaluation metrics, t-SNE / throughput tooling and per-table experiment drivers.
"""

__version__ = "1.0.0"

__all__ = ["NithoModel", "NithoConfig", "LithographySimulator", "OpticsConfig", "__version__"]

_LAZY = {"NithoModel": "core", "NithoConfig": "core",
         "LithographySimulator": "optics", "OpticsConfig": "optics"}


def __getattr__(name: str):
    """The four convenience names resolve on first use, so ``import repro``
    loads no subpackage (the rule: ``tests/test_import_boundary.py``)."""
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
