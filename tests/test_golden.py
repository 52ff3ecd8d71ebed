"""Golden outputs of a tiny fixed-seed run of the whole training stack.

Collects three demonstrations, saves them as a dataset, writes a restyled
copy of one, and trains a tiny encoder, probe and IDM on them, plus an IDM at
the default hyper. The sha256 of every file written and of every loss log is
pinned, so a refactor that changes any output bit fails here.

Recorded on x86-64 (Intel Xeon, 2 cores), Python 3.11, numpy 2.4 with
scipy-openblas 0.3.31. BLAS builds may reorder float sums, so on another
BLAS or CPU these hashes can differ while the code is still correct.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from trajcurate import dataset, encoder, flow, idm, probe, synthgen
from trajcurate.optim import LrSchedule

GOLDEN = {
    "dataset":
        "54e9fd87e059e0dde10a1b8b3b349e433e50c9061af1d6edc43e8da607a1941e",
    "encoder.tckp":
        "3f4a776290517c698ac391d0fcd50eda29ca9d6caeb7565826222658351d3775",
    "restyled.ntrj":
        "0765dfffef19460b9bca80fa3e95e53b8bdd50060f040cfb34413498ac4ccf8e",
    "probe.tckp":
        "b706466be1a0e1a5ba6ca0faa48408000881879ceb45823f46f3925033a19b9d",
    "idm.tckp":
        "715c32d8f31318c2deecaca8f7a7de1d772b31757dd466d8abfa26795fc26022",
    "idm_losses":
        "8f1e6c5ad45fe6c50061ef0b9e69259e4fdb010899ff175cf9fb361d43bff9fa",
    "idm_default.tckp":
        "d434545ba3c2fa372e0048c992b8ac152955f10b7c6bbbf8ce1cb8e2a788cf45",
    "idm_default_losses":
        "985042f258d0b48be4feb4e7e471c5fc2310f92a03ab04af4106e02dde45ed9a",
    "train_bce":
        "a9a8832a54622f49f6e837e22c6a1d132ca6562a53305571a140e5cb9c27ad0e",
    "val_bce":
        "a5a098218ce53f77c7b802c0ed8d643bf662471914db8084efd00fd22cc8154d",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _floats_sha(values) -> str:
    return _sha(np.asarray(values, dtype="<f8").tobytes())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    demos = dataset.collect_demos(3, seed=5)
    dataset.save_dataset(demos, root / "ds", seed=5)
    h = hashlib.sha256()
    for path in sorted((root / "ds").iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    out = {"dataset": h.hexdigest()}

    # A restyled demo pins `remap_frames` bytes directly, not only through
    # the encoder that pretrains on recoloured clips.
    rng = np.random.default_rng(5)
    palette_map = synthgen.random_palette_map(demos[0].scene, rng)
    restyled = synthgen.restyle_video(demos[0], palette_map,
                                      float(rng.uniform(0.5, 1.5)))
    dataset.write_episode(restyled, root / "restyled.ntrj")
    out["restyled.ntrj"] = _sha((root / "restyled.ntrj").read_bytes())

    enc = encoder.pretrain_encoder(
        demos, encoder.EncoderTrainConfig(steps=2, batch_clips=3, seed=5),
        encoder.EncoderHyper(dim=16, heads=2, blocks=1))
    pairs = probe.build_pairs(demos, seed=5)
    prb, report = probe.train_probe(pairs, enc, probe.ProbeTrainConfig(
        lr=1e-3, batch_pairs=8, max_epochs=3, seed=5))
    schedule = LrSchedule(base_lr=1e-3, total_steps=4, stable_steps=2)
    model, losses = idm.train_idm(
        demos, flow.TrainConfig(steps=4, batch_size=4, schedule=schedule, seed=5),
        idm.IdmHyper(dim=16, heads=2, blocks=1, euler_steps=2, sample_avg=2))

    # Default-size IDM: three blocks at dim 64, where the attention and MLP
    # sums are long enough for any reordering of them to show in the bits.
    default_idm, default_losses = idm.train_idm(
        demos, flow.TrainConfig(steps=4, batch_size=4, schedule=schedule, seed=5),
        idm.IdmHyper())

    for name, m in (("encoder", enc), ("probe", prb), ("idm", model),
                    ("idm_default", default_idm)):
        path = root / f"{name}.tckp"
        m.save(path)
        out[f"{name}.tckp"] = _sha(path.read_bytes())
    out["idm_losses"] = _floats_sha(losses)
    out["idm_default_losses"] = _floats_sha(default_losses)
    out["train_bce"] = _floats_sha(report.train_bce)
    out["val_bce"] = _floats_sha(report.val_bce)
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_hash(outputs, name):
    assert outputs[name] == GOLDEN[name]
