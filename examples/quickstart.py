"""Quickstart: train Nitho on synthetic mask/aerial pairs and predict new tiles.

This walks the full pipeline of the paper at a laptop-friendly scale:

1. generate ICCAD-2013-style mask tiles,
2. image them with the golden Hopkins/SOCS simulator (the "Lithosim" substitute),
3. train a Nitho model (coordinate-based complex MLP predicting optical kernels),
4. predict aerial and resist images for unseen masks and report the paper's metrics.

Run with:  python examples/quickstart.py
"""

from repro.analysis import ascii_image
from repro.core import NithoConfig, NithoModel
from repro.masks import ICCAD2013Generator
from repro.metrics import aerial_metrics, resist_metrics
from repro.optics import OpticsConfig, lithosim_engine


def main() -> None:
    tile_size_px = 64
    pixel_size_nm = 16.0

    # 1. Synthetic benchmark masks (contest-style metal clips).
    generator = ICCAD2013Generator(tile_size_px, pixel_size_nm, seed=1)
    train_masks = generator.generate(10)
    test_masks = generator.generate(3)

    # 2. Golden aerial / resist images from the physics simulator.
    simulator = lithosim_engine(tile_size_px=tile_size_px, pixel_size_nm=pixel_size_nm)
    train_aerials = simulator.aerial_batch(train_masks)
    test_aerials = simulator.aerial_batch(test_masks)
    test_resists = simulator.resist_model.develop(test_aerials)

    # 3. Train Nitho: the only learned component is the optical-kernel field.
    optics = OpticsConfig(tile_size_px=tile_size_px, pixel_size_nm=pixel_size_nm)
    config = NithoConfig(num_kernels=16, hidden_dim=48, num_hidden_blocks=2,
                         epochs=200, learning_rate=8e-3)
    model = NithoModel(optics, config)
    print(f"kernel window (Eq. 10): {model.kernel_shape}")
    print(f"trainable parameters  : {model.num_parameters()} "
          f"({model.size_megabytes():.3f} MB)")

    history = model.fit(train_masks, train_aerials, verbose=False)
    print(f"training MSE: {history[0]:.3e} -> {history[-1]:.3e} over {len(history)} epochs")

    # 4. Fast lithography on unseen masks: no network inference, just the kernel bank.
    predicted_aerials = model.predict_batch(test_masks)
    predicted_resists = model.resist_model.develop(predicted_aerials)

    aerial_scores = aerial_metrics(test_aerials, predicted_aerials)
    resist_scores = resist_metrics(test_resists, predicted_resists)
    print("\naerial stage :",
          f"MSE={aerial_scores['mse']:.3e}  ME={aerial_scores['me']:.3e}  "
          f"PSNR={aerial_scores['psnr']:.2f} dB")
    print("resist stage :",
          f"mPA={resist_scores['mpa']:.2f}%  mIOU={resist_scores['miou']:.2f}%")

    print("\nmask (test tile 0):")
    print(ascii_image(test_masks[0], width=48))
    print("\npredicted aerial image:")
    print(ascii_image(predicted_aerials[0], width=48))
    print("\npredicted resist image:")
    print(ascii_image(predicted_resists[0], width=48))


if __name__ == "__main__":
    main()
