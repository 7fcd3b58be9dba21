"""End-to-end out-of-distribution detection on desk-scale data.

Trains two small VAEs on a seeded two-mode blob dataset, one with the tilted
prior (tau=10, d_z=10) and one with a standard Gaussian prior, then scores
held-out blobs against uniform-noise images and against blobs with shifted
centers. The score is the plain reconstruction error plus the quadratic
divergence term; AUROC summarizes the separation. Takes about half a minute
on a laptop CPU.
"""

import os
import time

import numpy as np

import tiltvae.vae as V
from tiltvae import TiltedPrior
from tiltvae.data import blob_preset, gen_blobs, gen_noise
from tiltvae.ood import roc, score_arrays, write_scores_csv
from tiltvae.sampler import rng_stream

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

SEED = 7
H = W = 16
train_ds = gen_blobs(rng_stream(SEED, 101), 2000, H, W, blob_preset("two", H, W))
eval_in = gen_blobs(rng_stream(SEED + 1000, 101), 1000, H, W, blob_preset("two", H, W))
eval_noise = gen_noise(rng_stream(SEED + 2000, 101), 1000, H, W)
eval_shift = gen_blobs(rng_stream(SEED + 3000, 101), 1000, H, W, blob_preset("two_shifted", H, W))

config = V.TrainConfig(epochs=50, batch_size=64, learning_rate=3e-4)
prior = TiltedPrior.fit(10.0, 10)
print(f"tilted prior: gamma = {prior.gamma:.3f}, committed rate = {prior.committed_rate:.3f}")

t0 = time.perf_counter()
tilted = V.build_model(rng_stream(SEED, 0), H * W, 10, prior)
tilted_log = V.train(tilted, train_ds, config, rng_stream(SEED, 1))
gauss = V.build_model(rng_stream(SEED, 0), H * W, 10, V.StandardGaussian())
gauss_log = V.train(gauss, train_ds, config, rng_stream(SEED, 1))
print(f"trained both models in {time.perf_counter() - t0:.0f}s")
print(f"tilted:   epoch 1 (recon, kld) = {tuple(round(v, 2) for v in tilted_log[0])}, "
      f"epoch 50 = {tuple(round(v, 3) for v in tilted_log[-1])}")
print(f"gaussian: epoch 50 = {tuple(round(v, 3) for v in gauss_log[-1])}")
print(f"encoded radius: z_bar = {tilted.z_bar:.3f} vs gamma = {prior.gamma:.3f} "
      f"(the encoder settles slightly outside the divergence-optimal shell)")

# --- score and evaluate -----------------------------------------------------
for name, model in [("tilted", tilted), ("gaussian", gauss)]:
    recon_in, kld_in = score_arrays(model, eval_in.samples)
    write_scores_csv(os.path.join(OUT, f"scores_in_{name}.csv"),
                     recon_in, kld_in, eval_in.tag)
    scores_in = recon_in + kld_in
    for ood_name, ood_ds in [("noise", eval_noise), ("shifted", eval_shift)]:
        recon_out, kld_out = score_arrays(model, ood_ds.samples)
        scores_out = recon_out + kld_out
        curve = roc(scores_in, scores_out)
        curve.to_csv(os.path.join(OUT, f"roc_{name}_{ood_name}.csv"))
        print(f"{name:>8} vs {ood_name:<7}: AUROC = {curve.auroc:.4f} "
              f"(mean in {np.mean(scores_in):.2f}, out {np.mean(scores_out):.2f})")

print("wrote per-model score and ROC CSVs under out/")
print("\nthe same pipeline is scriptable through the CLI: train -> score -> roc,")
print("with every run reproducible from its manifest via `tiltvae replay`.")
