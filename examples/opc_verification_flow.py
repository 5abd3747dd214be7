"""OPC + printability verification flow using the stored optical-kernel bank.

A typical downstream use of a fast lithography model: a small routed layout is
tiled, each tile's mask is decorated by rule-based OPC, and the corrected
masks are verified by simulating the print.  Verification is run twice — once
with the rigorous Abbe reference and once with Nitho's exported kernel bank —
to show that the fast path reaches the same pass/fail conclusions orders of
magnitude faster (the Fig. 5 story in an application setting).

Run with:  python examples/opc_verification_flow.py
"""

import time

from repro.core import NithoConfig, NithoModel
from repro.layout import GeometryLayoutReader
from repro.masks import Rect, rule_based_opc
from repro.masks.generators import ISPDMetalGenerator
from repro.metrics import mean_iou
from repro.optics import OpticsConfig, calibre_like_engine


def build_layout(extent_nm: float) -> dict:
    """A small routed block: horizontal tracks on M1 with a few vertical straps."""
    pitch, width = 128.0, 48.0
    tracks = [Rect(32.0, track * pitch + (pitch - width) / 2, extent_nm - 64.0, width)
              for track in range(int(extent_nm // pitch))]
    straps = [Rect((column + 1) * extent_nm / 4, 64.0, width, extent_nm - 128.0)
              for column in range(3)]
    return {"M1": tracks + straps}


def main() -> None:
    tile_size_px, pixel_size_nm = 64, 16.0
    tile_extent_nm = tile_size_px * pixel_size_nm
    extent_nm = 2 * tile_extent_nm                        # a 2x2 grid of tiles
    reader = GeometryLayoutReader(build_layout(extent_nm), pixel_size_nm,
                                  extent_nm=extent_nm)

    simulator = calibre_like_engine(tile_size_px=tile_size_px, pixel_size_nm=pixel_size_nm)

    # Train Nitho once on this process (mask family does not matter - kernels are
    # mask independent, so any representative tiles will do).
    generator = ISPDMetalGenerator(tile_size_px, pixel_size_nm, seed=5)
    train_masks = generator.generate(8)
    train_aerials = simulator.aerial_batch(train_masks)
    optics = OpticsConfig(tile_size_px=tile_size_px, pixel_size_nm=pixel_size_nm,
                          resist_threshold=simulator.config.resist_threshold)
    nitho = NithoModel(optics, NithoConfig(num_kernels=14, hidden_dim=48,
                                           num_hidden_blocks=2, epochs=160))
    nitho.fit(train_masks, train_aerials)
    fast_engine = nitho.execution_engine()

    tiles = [reader.read_window(row * tile_size_px, col * tile_size_px,
                                tile_size_px, tile_size_px).astype(float)
             for row in range(2) for col in range(2)]
    print(f"layout tiled into {len(tiles)} tiles of {tile_extent_nm:.0f} nm")

    results = []
    slow_time = fast_time = 0.0
    for index, target in enumerate(tiles):
        corrected = rule_based_opc(target)

        start = time.perf_counter()
        golden_resist = simulator.resist_model.develop(simulator.aerial_rigorous(corrected))
        slow_time += time.perf_counter() - start

        start = time.perf_counter()
        fast_resist = fast_engine.resist(corrected)
        fast_time += time.perf_counter() - start

        fidelity = mean_iou(target, golden_resist)
        agreement = mean_iou(golden_resist, fast_resist)
        results.append((index, fidelity, agreement))

    print("\ntile | print fidelity (target vs golden print) | fast-vs-golden agreement")
    for index, fidelity, agreement in results:
        print(f"  {index}  |              {fidelity:6.2f}%                 |        {agreement:6.2f}%")

    speedup = slow_time / max(fast_time, 1e-9)
    print(f"\nrigorous verification time : {slow_time:.2f} s")
    print(f"kernel-bank verification    : {fast_time:.2f} s   ({speedup:.0f}x faster)")


if __name__ == "__main__":
    main()
