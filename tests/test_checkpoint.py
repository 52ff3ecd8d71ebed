from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcurate import checkpoint, encoder, idm
from trajcurate.checkpoint import CheckpointError, hyper_from_meta
from trajcurate.encoder import EncoderHyper, EncoderModel
from trajcurate.idm import IdmHyper, IdmModel
from trajcurate.probe import ProbeHyper, ProbeModel


def write_small_checkpoint(path):
    rng = np.random.default_rng(7)
    checkpoint.save_checkpoint(
        path, {"a.w": rng.normal(size=(3, 4)), "b": rng.normal(size=(5,))},
        meta={"dim": 4, "heads": 2})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_checkpoint_raises_only_checkpoint_error(tmp_path_factory, data):
    """Byte flips and truncations of a written checkpoint either still load or
    raise CheckpointError; no other exception escapes the reader."""
    path = tmp_path_factory.mktemp("fuzz") / "model.tckp"
    write_small_checkpoint(path)
    raw = bytearray(path.read_bytes())
    index = st.integers(0, len(raw) - 1)
    for i, value in data.draw(st.lists(st.tuples(index, st.integers(0, 255)), max_size=4)):
        raw[i] = value
    cut = data.draw(st.one_of(st.none(), st.integers(0, 8), index))
    path.write_bytes(bytes(raw[:cut]))
    try:
        checkpoint.load_checkpoint(path)
    except CheckpointError:
        pass


@pytest.mark.parametrize("blob", [b"", b"TC", b"TCKP", b"TCKP\x01"])
def test_header_only_checkpoint_rejected(tmp_path, blob):
    path = tmp_path / "model.tckp"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError):
        checkpoint.load_checkpoint(path)


def test_header_only_checkpoint_with_version_is_empty(tmp_path):
    path = tmp_path / "model.tckp"
    path.write_bytes(b"TCKP\x01\x00")
    assert checkpoint.load_checkpoint(path) == ({}, {})


def test_hyper_from_meta_roundtrip_and_rejects_bad_fields():
    hyper = IdmHyper(dim=8, heads=2, blocks=1)
    meta = {k: float(v) for k, v in asdict(hyper).items()}
    assert hyper_from_meta(IdmHyper, meta) == hyper
    for bad in (None, 2.5, float("nan"), float("inf"), 0.0, -1.0):
        broken = dict(meta)
        if bad is None:
            del broken["sample_avg"]
        else:
            broken["sample_avg"] = bad
        with pytest.raises(CheckpointError, match="sample_avg"):
            hyper_from_meta(IdmHyper, broken)


def test_model_load_rejects_meta_missing_a_hyper_field(tmp_path):
    path = tmp_path / "idm.tckp"
    IdmModel(IdmHyper(dim=8, heads=2, blocks=1), seed=1).save(path)
    arrays, meta = checkpoint.load_checkpoint(path)
    del meta["sample_avg"]
    checkpoint.save_checkpoint(path, arrays, meta=meta)
    with pytest.raises(CheckpointError, match="sample_avg"):
        IdmModel.load(path)


MODELS = [
    (EncoderModel, EncoderHyper(dim=8, heads=2, blocks=1, resolution=32)),
    (ProbeModel, ProbeHyper(dim=8, heads=2)),
    (IdmModel, IdmHyper(dim=8, heads=2, blocks=1, horizon=4, resolution=32)),
]


def rewrite(path, edit_arrays=None, **meta_changes):
    """Load a checkpoint's records, change them, and save it again well formed."""
    arrays, meta = checkpoint.load_checkpoint(path)
    if edit_arrays:
        edit_arrays(arrays)
    checkpoint.save_checkpoint(path, arrays, meta={**meta, **meta_changes})


@pytest.mark.parametrize("values", [(8.0, 99.0), (), ((8.0,),)])
def test_load_rejects_a_meta_record_of_other_than_one_value(tmp_path, values):
    """A file whose meta/dim holds (8, 99) used to load with dim 8; one value
    in a (1, 1) record is still one value, and loads."""
    path = tmp_path / "idm.tckp"
    IdmModel(dict(MODELS)[IdmModel], seed=1).save(path)
    arrays, meta = checkpoint.load_checkpoint(path)
    del meta["dim"]
    checkpoint.save_checkpoint(path, {**arrays, "meta/dim": np.array(values)}, meta=meta)
    if np.size(values) == 1:
        assert IdmModel.load(path).hyper.dim == 8
        return
    with pytest.raises(CheckpointError, match="meta/dim"):
        checkpoint.load_checkpoint(path)


@pytest.mark.parametrize("module, field, value", [
    pytest.param(module, field, value, id=f"{prefix}{field}-{value}")
    for module, prefix, field, value in [
        (encoder, "", "stride", 2), (encoder, "", "stride", None),
        (encoder, "", "clip_len", 8), (encoder, "", "clip_len", None),
        (encoder, "", "patch", 8), (encoder, "", "patch", None),
        (encoder, "", "tubelet", 1), (encoder, "", "tubelet", None),
        (idm, "idm-", "patch", 8), (idm, "idm-", "patch", None),
        (idm, "idm-", "block_causal", 0)]])
def test_encoder_load_rejects_meta_clip_geometry(tmp_path, module, field, value):
    """Meta that lacks the clip and token geometry the encoder's module fixes,
    or the IDM's patch, or disagrees with it, is rejected; None deletes the
    field."""
    cls = EncoderModel if module is encoder else IdmModel
    path = tmp_path / "model.tckp"
    cls(dict(MODELS)[cls], seed=1).save(path)
    arrays, meta = checkpoint.load_checkpoint(path)
    assert {name: meta[name] for name in module.GEOMETRY} == module.GEOMETRY
    if value is None:
        del meta[field]
    else:
        meta[field] = value
    checkpoint.save_checkpoint(path, arrays, meta=meta)
    with pytest.raises(CheckpointError, match=field):
        cls.load(path)


@pytest.mark.parametrize("cls, hyper", MODELS)
@pytest.mark.parametrize("field, value", [("dim", 0), ("dim", -3), ("heads", 0), ("heads", 3)])
def test_model_load_rejects_meta_out_of_range(tmp_path, cls, hyper, field, value):
    """heads 3 does not divide dim 8."""
    path = tmp_path / "model.tckp"
    cls(hyper, seed=1).save(path)
    rewrite(path, **{field: value})
    with pytest.raises(CheckpointError, match=field):
        cls.load(path)


@pytest.mark.parametrize("cls, hyper", MODELS)
@pytest.mark.parametrize("edit", ["drop", "reshape", "extra", "inf"])
def test_model_load_rejects_arrays_that_disagree_with_meta(tmp_path, cls, hyper, edit):
    """Also a parameter that is not finite, which would first fail at a
    forward pass."""
    path = tmp_path / "model.tckp"
    cls(hyper, seed=1).save(path)
    name = "pos_embed" if cls is not ProbeModel else "query"

    def edit_arrays(arrays):
        if edit == "drop":
            del arrays[name]
        elif edit == "reshape":
            arrays[name] = arrays[name][:-1]
        elif edit == "extra":
            arrays["trunk.blk9.ln1.g"] = np.ones(hyper.dim)
        else:
            arrays[name].flat[0] = np.inf

    rewrite(path, edit_arrays)
    with pytest.raises(CheckpointError):
        cls.load(path)


@pytest.mark.parametrize("edit", ["drop", "reshape", "nan", "inf"])
def test_idm_load_rejects_bad_action_normalization(tmp_path, edit):
    """A NaN in the normalization would give NaN labels without any error."""
    path = tmp_path / "idm.tckp"
    IdmModel(IdmHyper(dim=8, heads=2, blocks=1), seed=1).save(path)

    def edit_arrays(arrays):
        if edit == "drop":
            del arrays["norm/std"]
        elif edit == "reshape":
            arrays["norm/std"] = np.ones(1)
        else:
            arrays["norm/mean"][0] = float(edit)

    rewrite(path, edit_arrays)
    with pytest.raises(CheckpointError):
        IdmModel.load(path)


def test_idm_load_rejects_a_file_from_before_block_causal_attention(tmp_path):
    """Such a file has the same arrays and only the patch in its fixed meta,
    but its trunk let the frame tokens attend to the action rows, so loading
    it into today's model would give other labels without any error."""
    model = IdmModel(IdmHyper(dim=8, heads=2, blocks=1), seed=1)
    path = tmp_path / "idm.tckp"
    checkpoint.save_checkpoint(path, *checkpoint.model_state(
        model, {"norm/mean": model.norm_mean, "norm/std": model.norm_std},
        meta={"patch": idm.PATCH}))
    with pytest.raises(CheckpointError, match="block_causal"):
        IdmModel.load(path)
