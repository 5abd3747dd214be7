"""repro — reproduction of "Physics-Informed Optical Kernel Regression Using
Complex-valued Neural Fields" (Nitho, DAC 2023).

Subpackages
-----------
``repro.nn``
    Complex-valued autograd substrate (layers, optimizers) replacing PyTorch.
``repro.optics``
    Hopkins / TCC / SOCS partially-coherent imaging (golden simulator).
``repro.backend``
    Compute-backend seam: FFT implementation registry and precision policy.
``repro.engine``
    Unified execution layer: vectorised batched imaging, the process-wide
    kernel-bank cache, guard-banded large-layout tiling, out-of-core
    streaming and sharding over worker threads.
``repro.layout``
    Windowed layout readers: rasterise arbitrary windows of dense rasters
    or bucket-grid indexed geometry (JSON / GDSII-text files) on demand.
``repro.sweep``
    Process-window qualification campaigns: focus x dose grids, resumable
    campaign stores and zero-recompute campaign reports.
``repro.masks``
    Synthetic benchmark layouts, OPC and dataset assembly.
``repro.core``
    The Nitho model: kernel dimensioning, positional encodings, CMLP, training.
``repro.baselines``
    TEMPO- and DOINN-style image-to-image baselines.
``repro.metrics`` / ``repro.analysis`` / ``repro.experiments``
    Evaluation metrics, t-SNE / throughput tooling and per-table experiment drivers.
"""

from .core import NithoConfig, NithoModel
from .optics import LithographySimulator, OpticsConfig

__version__ = "1.0.0"

__all__ = ["NithoModel", "NithoConfig", "LithographySimulator", "OpticsConfig", "__version__"]
