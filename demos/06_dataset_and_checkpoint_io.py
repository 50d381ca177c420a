"""The on-disk containers: dataset directories and checkpoints.

Both are a JSON manifest plus one small binary matrix file per field, with
float32 storage widened to float64 in memory. Equal seeds give byte-equal
files, so artifacts are safe to diff and cache.
"""

import os
import tempfile
from dataclasses import asdict

import numpy as np

from genzsl import (SyntheticSpec, TrainConfig, load_checkpoint, load_dataset,
                    make_synthetic, save_checkpoint, save_dataset, train)

with tempfile.TemporaryDirectory() as tmp:
    ds_dir = os.path.join(tmp, "dataset")
    dataset = make_synthetic(SyntheticSpec(k_seen=5, k_unseen=2, visual_dim=8,
                                           semantic_dim=6, samples_per_class=20))
    save_dataset(dataset, ds_dir)
    print("dataset directory:")
    for name in sorted(os.listdir(ds_dir)):
        print(f"  {name} ({os.path.getsize(os.path.join(ds_dir, name))} bytes)")

    again = load_dataset(ds_dir)
    print("\nround trip: labels preserved exactly:",
          np.array_equal(again.seen_labels, dataset.seen_labels))
    print("features match to storage precision:",
          np.allclose(again.seen_features, dataset.seen_features, atol=1e-5))

    cfg = TrainConfig(n_steps=10, eval_every=10, batch_size=8, seed=0,
                      n_generate_eval=5)
    params, _ = train(dataset, cfg)
    ck_dir = os.path.join(tmp, "checkpoint")
    save_checkpoint(params, asdict(cfg), ck_dir)
    loaded, snapshot = load_checkpoint(ck_dir)
    print("\ncheckpoint holds", len(loaded.generator.store),
          "generator tensors and", len(loaded.discriminator.store),
          "discriminator tensors")
    print("config snapshot n_steps:", snapshot["n_steps"])
