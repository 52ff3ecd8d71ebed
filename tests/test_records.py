import numpy as np
import pytest

from trajcurate import checkpoint, dataset, records
from trajcurate.records import F64, JSON, U8
from trajcurate.sim import Instruction, SceneObject, SceneSpec

MAGIC, VERSION = b"TEST", 3


def test_kinded_records_roundtrip(tmp_path):
    u8 = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    f64 = np.linspace(-1.0, 1.0, 6).astype("<f8").reshape(3, 2)
    text = b'{"a":1}'
    written = [("u8", U8, u8.shape, u8), ("f64", F64, f64.shape, f64),
               ("json", JSON, (len(text),), text), ("empty", F64, (0, 5), b"")]
    records.write_records(tmp_path / "r.bin", MAGIC, VERSION, written)
    raw = (tmp_path / "r.bin").read_bytes()
    read = records.read_records(raw, MAGIC, VERSION, True)
    assert [(n, k, d) for n, k, d, _ in read] == [(n, k, d) for n, k, d, _ in written]
    assert [bytes(p) for *_, p in read] == [bytes(p) for *_, p in written]
    assert all(isinstance(p, memoryview) and p.obj is raw for *_, p in read)


def test_kindless_records_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"b": rng.normal(size=(2, 3)), "a": rng.normal(size=(4,)), "s": np.zeros(())}
    records.write_records(tmp_path / "r.bin", MAGIC, VERSION,
                          [(n, None, a.shape, a) for n, a in arrays.items()])
    read = records.read_records((tmp_path / "r.bin").read_bytes(), MAGIC, VERSION, False)
    assert [(n, k, d) for n, k, d, _ in read] == [(n, None, a.shape) for n, a in arrays.items()]
    for (_, _, dims, payload), arr in zip(read, arrays.values()):
        assert np.frombuffer(payload, "<f8").reshape(dims).tobytes() == arr.tobytes()


@pytest.mark.parametrize("kinded", [True, False])
def test_repeated_record_name_raises(tmp_path, kinded):
    one = np.ones((2,))
    kind = F64 if kinded else None
    records.write_records(tmp_path / "r.bin", MAGIC, VERSION,
                          [("x", kind, (2,), one), ("y", kind, (2,), one),
                           ("x", kind, (2,), 2 * one)])
    with pytest.raises(ValueError, match="repeated record name 'x'"):
        records.read_records((tmp_path / "r.bin").read_bytes(), MAGIC, VERSION, kinded)


def append_record(path, magic, version, kinded, name):
    """Rewrite `path` with a copy of its record `name`, holding other values,
    appended at the end."""
    recs = records.read_records(path.read_bytes(), magic, version, kinded)
    _, kind, dims, payload = next(r for r in recs if r[0] == name)
    other = np.frombuffer(payload, "<f8") + 1.0
    records.write_records(path, magic, version, [*recs, (name, kind, dims, other)])


def test_episode_with_a_repeated_record_raises_dataset_error(tmp_path):
    path = tmp_path / "ep.ntrj"
    rng = np.random.default_rng(1)
    episode = dataset.Episode(
        episode_id=0, embodiment="real",
        scene=SceneSpec(table_color=8, background_color=10, lighting_gain=1.0,
                        objects=(SceneObject("circle", 1, 0.055, (0.40, 0.35)),)),
        instruction=Instruction("pick_place", "circle", 1, "plate", "left"),
        frames=rng.integers(0, 256, size=(3, 8, 8, 3), dtype=np.uint8),
        states=rng.normal(size=(3, 6)), actions=rng.normal(size=(2, 6)))
    dataset.write_episode(episode, path)
    append_record(path, dataset.MAGIC, dataset.VERSION, True, "states")
    with pytest.raises(dataset.DatasetError, match="repeated record name 'states'"):
        dataset.read_episode(path)


def test_checkpoint_with_a_repeated_record_raises_checkpoint_error(tmp_path):
    path = tmp_path / "model.tckp"
    checkpoint.save_checkpoint(path, {"a": np.ones((2, 2)), "b": np.zeros((3,))})
    append_record(path, checkpoint.MAGIC, checkpoint.VERSION, False, "a")
    with pytest.raises(checkpoint.CheckpointError, match="repeated record name 'a'"):
        checkpoint.load_checkpoint(path)
