"""Analysis tooling: t-SNE embedding, throughput measurement, reporting, visual dumps."""

from ..utils.imaging import ascii_image, write_pgm
from .reporting import format_table, format_value, ratio_row, render_bar_chart, render_series
from .throughput import (
    ThroughputResult,
    compare_throughput,
    measure_throughput,
    speedup,
    tile_area_um2,
)
from .tsne import TSNE, TSNEResult, cluster_separation, embed_datasets, mask_features
from .visualize import comparison_panel, save_comparison_pgms

__all__ = [
    "TSNE", "TSNEResult", "embed_datasets", "mask_features", "cluster_separation",
    "ThroughputResult", "measure_throughput", "compare_throughput", "speedup", "tile_area_um2",
    "format_table", "format_value", "ratio_row", "render_bar_chart", "render_series",
    "ascii_image", "write_pgm", "comparison_panel", "save_comparison_pgms",
]
