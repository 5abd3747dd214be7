"""Inspect what Nitho actually learns: compare predicted and golden optical kernels.

The paper's claim is that Nitho restores the lithography system itself (the
TCC kernels), not an image-to-image shortcut.  This example trains a model,
then compares the learned kernel bank against the golden SOCS kernels of the
simulator that produced the training data:

* per-kernel energy spectrum (the eigenvalue decay),
* aerial images produced by the two banks on an unseen mask,
* the effect of truncating each bank to fewer kernels.

Run with:  python examples/kernel_inspection.py
"""

import numpy as np

from repro.analysis import ascii_image
from repro.core import NithoConfig, NithoModel
from repro.masks import ICCAD2013Generator
from repro.metrics import psnr
from repro.optics import OpticsConfig, lithosim_engine


def main() -> None:
    tile_size_px, pixel_size_nm = 64, 16.0
    simulator = lithosim_engine(tile_size_px=tile_size_px, pixel_size_nm=pixel_size_nm)

    generator = ICCAD2013Generator(tile_size_px, pixel_size_nm, seed=4)
    train_masks = generator.generate(10)
    train_aerials = simulator.aerial_batch(train_masks)

    optics = OpticsConfig(tile_size_px=tile_size_px, pixel_size_nm=pixel_size_nm)
    model = NithoModel(optics, NithoConfig(num_kernels=16, hidden_dim=48,
                                           num_hidden_blocks=2, epochs=250))
    model.fit(train_masks, train_aerials)

    # Both banks image through the same ExecutionEngine: a learned bank is a
    # drop-in SOCS bank.
    golden_bank = simulator.engine
    learned_bank = model.execution_engine()

    # The golden bank is packed: each row holds two real-field eigenkernels.
    golden_socs = simulator.kernels
    print(f"golden kernel bank : {golden_socs.eigenvalues.size} kernels of "
          f"{golden_bank.kernel_shape}, two per transform: {golden_bank.order} rows")
    print(f"learned kernel bank: {learned_bank.order} kernels of {learned_bank.kernel_shape}")

    golden_energy = golden_socs.eigenvalues
    learned_energy = np.sort(learned_bank.kernel_energy())[::-1]
    print("\nper-kernel energy (descending):")
    print("  golden :", " ".join(f"{value:.3f}" for value in golden_energy[:8]))
    print("  learned:", " ".join(f"{value:.3f}" for value in learned_energy[:8]))
    print("  total  : golden = {:.3f}, learned = {:.3f}".format(
        golden_energy.sum(), learned_energy.sum()))

    # Unseen mask: both banks should image it nearly identically.
    unseen = generator.generate(1)[0]
    golden_aerial = golden_bank.aerial(unseen)
    learned_aerial = learned_bank.aerial(unseen)
    print(f"\naerial agreement on an unseen mask: PSNR = "
          f"{psnr(golden_aerial, learned_aerial):.2f} dB")

    print("\ntruncation study (aerial PSNR vs the full golden bank):")
    for order in (1, 2, 4, 8, learned_bank.order):
        truncated = learned_bank.truncate(min(order, learned_bank.order))
        value = psnr(golden_aerial, truncated.aerial(unseen))
        print(f"  learned kernels kept = {truncated.order:2d}  ->  {value:6.2f} dB")

    # K_1 is the real-field half of the first packed row K_1 + i K_2.
    print("\ndominant golden kernel (|K_1| in the frequency window):")
    print(ascii_image(np.abs(golden_socs.real_field_kernels()[0]), width=31))
    print("\ndominant learned kernel (largest-energy predicted kernel):")
    strongest = int(np.argmax(learned_bank.kernel_energy()))
    print(ascii_image(np.abs(model.export_kernels()[strongest]), width=31))


if __name__ == "__main__":
    main()
