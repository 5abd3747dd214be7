"""Out-of-distribution generalisation: the paper's central motivation (Fig. 2 / Table IV).

Both a DOINN-style image-to-image baseline and Nitho are trained on the same
metal-layer masks (B1-style), then evaluated on a mask family neither has ever
seen (ISPD-style via layers).  The image-to-image model degrades because its
weights memorise the training distribution; Nitho barely moves because the
learned part — the optical kernels — is independent of the mask.

Run with:  python examples/ood_generalization.py
"""

from repro.baselines import DoinnModel
from repro.core import NithoConfig, NithoModel
from repro.masks import ICCAD2013Generator, ISPDViaGenerator
from repro.metrics import aerial_metrics, resist_metrics
from repro.optics import OpticsConfig, lithosim_engine


def evaluate(name, model, masks, aerials, resists):
    predicted_aerials = model.predict_batch(masks)
    predicted_resists = model.resist_model.develop(predicted_aerials)
    aerial_scores = aerial_metrics(aerials, predicted_aerials)
    resist_scores = resist_metrics(resists, predicted_resists)
    print(f"  {name:<18} PSNR={aerial_scores['psnr']:6.2f} dB   "
          f"mPA={resist_scores['mpa']:6.2f}%   mIOU={resist_scores['miou']:6.2f}%")
    return aerial_scores, resist_scores


def main() -> None:
    tile_size_px, pixel_size_nm = 64, 16.0
    simulator = lithosim_engine(tile_size_px=tile_size_px, pixel_size_nm=pixel_size_nm)

    # Training distribution: contest-style metal clips.
    metal_generator = ICCAD2013Generator(tile_size_px, pixel_size_nm, seed=2)
    train_masks = metal_generator.generate(10)
    train_aerials = simulator.aerial_batch(train_masks)

    # In-distribution test tiles and the unseen (via-layer) family.
    test_metal = metal_generator.generate(3)
    via_generator = ISPDViaGenerator(tile_size_px, pixel_size_nm, seed=9)
    test_via = via_generator.generate(3)

    def golden(masks):
        aerials = simulator.aerial_batch(masks)
        return aerials, simulator.resist_model.develop(aerials)

    metal_aerials, metal_resists = golden(test_metal)
    via_aerials, via_resists = golden(test_via)

    # Train both models on the same metal-layer data.
    optics = OpticsConfig(tile_size_px=tile_size_px, pixel_size_nm=pixel_size_nm)
    nitho = NithoModel(optics, NithoConfig(num_kernels=14, hidden_dim=48,
                                           num_hidden_blocks=2, epochs=160))
    nitho.fit(train_masks, train_aerials)

    doinn = DoinnModel(work_resolution=32, base_channels=6, modes=8, epochs=60, seed=0)
    doinn.fit(train_masks, train_aerials)

    print("\nIn-distribution test (metal clips, same family as training):")
    evaluate("DOINN (baseline)", doinn, test_metal, metal_aerials, metal_resists)
    evaluate("Nitho (ours)", nitho, test_metal, metal_aerials, metal_resists)

    print("\nOut-of-distribution test (via layer, never seen during training):")
    doinn_ood, _ = evaluate("DOINN (baseline)", doinn, test_via, via_aerials, via_resists)
    nitho_ood, _ = evaluate("Nitho (ours)", nitho, test_via, via_aerials, via_resists)

    gap = nitho_ood["psnr"] - doinn_ood["psnr"]
    print(f"\nNitho's OOD aerial PSNR advantage over the image-to-image baseline: {gap:.2f} dB")


if __name__ == "__main__":
    main()
