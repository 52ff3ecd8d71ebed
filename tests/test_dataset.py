import json
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcurate import dataset, encoder, records, sim
from trajcurate.dataset import Episode
from trajcurate.sim import Instruction, SceneObject, SceneSpec


def tiny_scene():
    return SceneSpec(table_color=8, background_color=10, lighting_gain=1.0,
                     objects=(SceneObject("circle", 1, 0.055, (0.40, 0.35)),
                              SceneObject("square", 3, 0.055, (0.62, 0.40))))


def make_episode(eid=0, t=5, embodiment="real", rng=None):
    rng = rng or np.random.default_rng(eid)
    frames = rng.integers(0, 256, size=(t, 16, 16, 3), dtype=np.uint8)
    states = (np.zeros((t, 6)) if embodiment == "neural"
              else rng.normal(size=(t, 6)))
    return Episode(episode_id=eid, embodiment=embodiment, scene=tiny_scene(),
                   instruction=Instruction("pick_place", "circle", 1, "plate", "left"),
                   frames=frames, states=states,
                   actions=rng.normal(size=(t - 1, 6)),
                   provenance={"expert_seed": 1, "attempt": 0})


# -- scripted expert ---------------------------------------------------------------


def test_expert_deterministic():
    scene = tiny_scene()
    instr = Instruction("pick_place", "circle", 1, "right", "left")
    a1 = dataset.scripted_expert(scene, instr, seed=7)
    a2 = dataset.scripted_expert(scene, instr, seed=7)
    assert np.array_equal(a1, a2)


def test_expert_infeasible_target():
    scene = tiny_scene()
    instr = Instruction("pick_place", "triangle", 7, "plate", "left")
    with pytest.raises(dataset.InfeasibleInstruction):
        dataset.scripted_expert(scene, instr, seed=0)


@pytest.mark.parametrize("behavior,hand", [("pick_place", "left"), ("push", "right"),
                                           ("stack", "right")])
def test_expert_rollout_succeeds(behavior, hand):
    scene = tiny_scene()
    instr = Instruction(behavior, "circle", 1, "plate", hand)
    actions = dataset.scripted_expert(scene, instr, seed=3)
    states = sim.rollout(scene, sim.initial_state(scene), actions)
    assert sim.task_success(scene, states, instr)


def test_expert_success_rate_over_seeded_scenes():
    hits = 0
    total = 100
    for i in range(total):
        rng = np.random.default_rng(1000 + i)
        scene = sim.sample_scene(rng)
        try:
            instr = dataset.sample_instruction(scene, rng)
            actions = dataset.scripted_expert(scene, instr, seed=2000 + i)
        except (dataset.InfeasibleInstruction, dataset.ExpertFailure):
            continue
        states = sim.rollout(scene, sim.initial_state(scene), actions)
        hits += sim.task_success(scene, states, instr)
    assert hits >= 99


# -- collection ---------------------------------------------------------------------


def test_collect_demos_all_succeed_and_replay():
    eps = dataset.collect_demos(4, seed=11)
    assert len(eps) == 4
    for ep in eps:
        assert ep.embodiment == "real"
        states = sim.rollout(ep.scene, sim.initial_state(ep.scene), ep.actions)
        assert sim.task_success(ep.scene, states, ep.instruction)
        video = sim.replay(ep.scene, ep.actions)
        assert np.array_equal(video, ep.frames)


def test_collect_demos_deterministic():
    a = dataset.collect_demos(2, seed=5)
    b = dataset.collect_demos(2, seed=5)
    assert all(dataset.episodes_equal(x, y) for x, y in zip(a, b))


# -- episode invariants ---------------------------------------------------------------


# (frames, states, actions) shapes an Episode must reject
MISSHAPEN = [
    ((5, 8, 8, 3), (4, 6), (4, 6)),     # one state short
    ((3, 8, 8, 3), (3, 6), (4, 3)),     # 12 action values, as many as (2, 6)
    ((3, 8, 8, 3), (3, 2), (2, 6)),     # states too narrow
    ((3, 8, 8, 3), (3, 6), (2, 6, 1)),  # actions of rank 3
    ((3, 8, 8), (3, 6), (2, 6)),        # frames without channels
    ((3, 8, 8, 4), (3, 6), (2, 6)),     # frames with four channels
]


def test_episode_length_invariant():
    for frames, states, actions in MISSHAPEN:
        with pytest.raises(ValueError):
            Episode(episode_id=0, embodiment="real", scene=tiny_scene(),
                    instruction=Instruction("pick_place", "circle", 1, "plate", "left"),
                    frames=np.zeros(frames, dtype=np.uint8),
                    states=np.zeros(states), actions=np.zeros(actions))


def test_episode_rejects_an_unknown_embodiment():
    with pytest.raises(ValueError, match="unknown embodiment 'sim'"):
        make_episode(embodiment="sim")


def test_collect_demos_needs_one_episode():
    with pytest.raises(ValueError, match="n >= 1"):
        dataset.collect_demos(0)


def test_neural_episode_requires_zero_states():
    with pytest.raises(ValueError):
        make_episode(t=4, embodiment="neural",
                     rng=np.random.default_rng(1)).__class__(
            episode_id=0, embodiment="neural", scene=tiny_scene(),
            instruction=Instruction("pick_place", "circle", 1, "plate", "left"),
            frames=np.zeros((3, 8, 8, 3), dtype=np.uint8),
            states=np.ones((3, 6)), actions=np.zeros((2, 6)),
        )


# -- serialization ---------------------------------------------------------------------


def test_roundtrip_ten_episodes(tmp_path):
    eps = [make_episode(eid=i, t=4 + i) for i in range(10)]
    dataset.save_dataset(eps, tmp_path / "ds", name="x", seed=9)
    loaded = dataset.load_dataset(tmp_path / "ds")
    assert len(loaded) == 10
    assert all(dataset.episodes_equal(a, b) for a, b in zip(eps, loaded))


@settings(max_examples=10, deadline=None)
@given(eid=st.integers(0, 2**32), t=st.integers(2, 8),
       embodiment=st.sampled_from(["real", "neural"]))
def test_roundtrip_property(tmp_path_factory, eid, t, embodiment):
    path = tmp_path_factory.mktemp("ds") / "ep.ntrj"
    ep = make_episode(eid=eid, t=t, embodiment=embodiment)
    dataset.write_episode(ep, path)
    assert dataset.episodes_equal(ep, dataset.read_episode(path))


def test_truncated_episode_detected(tmp_path):
    path = tmp_path / "ep.ntrj"
    dataset.write_episode(make_episode(), path)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(dataset.DatasetError):
        dataset.read_episode(path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_episode_raises_only_dataset_error(tmp_path_factory, data):
    """Byte flips and truncations of a written episode either still load or
    raise DatasetError; no other exception escapes the reader."""
    path = tmp_path_factory.mktemp("fuzz") / "ep.ntrj"
    dataset.write_episode(make_episode(), path)
    raw = bytearray(path.read_bytes())
    index = st.integers(0, len(raw) - 1)
    for i, value in data.draw(st.lists(st.tuples(index, st.integers(0, 255)), max_size=4)):
        raw[i] = value
    cut = data.draw(st.one_of(st.none(), st.integers(0, 8), index))
    path.write_bytes(bytes(raw[:cut]))
    try:
        dataset.read_episode(path)
    except dataset.DatasetError:
        pass


def test_misshapen_actions_record_detected(tmp_path):
    """Actions dims (4, 3) at T = 3 hold as many values as (2, 6); the reader
    rejects them instead of reshaping."""
    path = tmp_path / "ep.ntrj"
    dataset.write_episode(make_episode(t=3), path)
    recs = records.read_records(path.read_bytes(), dataset.MAGIC, dataset.VERSION, True)
    records.write_records(path, dataset.MAGIC, dataset.VERSION, [
        (name, kind, (4, 3) if name == "actions" else dims, payload)
        for name, kind, dims, payload in recs])
    with pytest.raises(dataset.DatasetError):
        dataset.read_episode(path)


def _json_payload(array):
    payload = json.dumps(array.tolist()).encode()
    return records.JSON, (len(payload),), payload


def _f64_frames_with_a_fraction(frames):
    out = frames.astype("<f8")
    out.flat[0] = 12.7
    return records.F64, out.shape, out


KIND_FAULTS = {
    "states_as_u8": ("states", lambda a: (records.U8, a.shape, a.astype(np.uint8))),
    "frames_as_f64": ("frames", _f64_frames_with_a_fraction),
    "states_as_json": ("states", _json_payload),
}


@pytest.mark.parametrize("fault", sorted(KIND_FAULTS))
def test_record_of_another_kind_detected(tmp_path, fault):
    """A record whose kind is not the one the writer gives its name is
    rejected, not decoded by the kind the file claims and then cast."""
    name, rewrite = KIND_FAULTS[fault]
    episode = make_episode(t=3)
    path = tmp_path / "ep.ntrj"
    dataset.write_episode(episode, path)
    recs = records.read_records(path.read_bytes(), dataset.MAGIC, dataset.VERSION, True)
    records.write_records(path, dataset.MAGIC, dataset.VERSION, [
        (n, *rewrite(getattr(episode, name))) if n == name else (n, kind, dims, payload)
        for n, kind, dims, payload in recs])
    with pytest.raises(dataset.DatasetError, match="kind"):
        dataset.read_episode(path)


SCENE_FAULTS = {
    "robot_table": lambda d: d.update(table_color=sim.ROBOT_COLOR_INDEX),
    "negative_background": lambda d: d.update(background_color=-1),
    "hexagon": lambda d: d["objects"][0].update(shape="hexagon"),
    "object_color_99": lambda d: d["objects"][0].update(color=99),
    "nan_position": lambda d: d["objects"][0].update(position=[float("nan"), 0.35]),
    "nan_radius": lambda d: d["objects"][0].update(radius=float("nan")),
}


@pytest.mark.parametrize("fault", sorted(SCENE_FAULTS))
def test_scene_fault_in_file_detected(tmp_path, fault):
    """A well-formed file whose scene could not have been drawn is rejected
    on read, not when its scene is first rendered."""
    path = tmp_path / "ep.ntrj"
    dataset.write_episode(make_episode(), path)
    recs = records.read_records(path.read_bytes(), dataset.MAGIC, dataset.VERSION, True)
    scene = tiny_scene().to_dict()
    SCENE_FAULTS[fault](scene)
    payload = json.dumps(scene).encode()
    records.write_records(path, dataset.MAGIC, dataset.VERSION, [
        ("scene", kind, (len(payload),), payload) if name == "scene" else (name, kind, dims, data)
        for name, kind, dims, data in recs])
    with pytest.raises(dataset.DatasetError):
        dataset.read_episode(path)


def write_with_target_color(path, episode, color):
    """Write `episode` with its instruction's target colour rewritten."""
    dataset.write_episode(episode, path)
    recs = records.read_records(path.read_bytes(), dataset.MAGIC, dataset.VERSION, True)
    instruction = json.loads(bytes(next(data for name, _, _, data in recs
                                        if name == "instruction")))
    instruction["target_color"] = color
    payload = json.dumps(instruction).encode()
    records.write_records(path, dataset.MAGIC, dataset.VERSION, [
        ("instruction", kind, (len(payload),), payload) if name == "instruction"
        else (name, kind, dims, data) for name, kind, dims, data in recs])


def test_instruction_targeting_the_robot_color_in_file_detected(tmp_path):
    """A file whose instruction names the robot colour, which no scene object
    takes, is rejected on read."""
    path = tmp_path / "ep.ntrj"
    write_with_target_color(path, dataset.collect_demos(1, seed=3)[0], sim.ROBOT_COLOR_INDEX)
    with pytest.raises(dataset.DatasetError, match="unknown target_color 0"):
        dataset.read_episode(path)


def test_instruction_targeting_an_absent_object_in_file_detected(tmp_path):
    """A file whose instruction names a colour that no object in its scene
    has is rejected on read, not when the episode is first replayed."""
    path = tmp_path / "ep.ntrj"
    episode = dataset.collect_demos(1, seed=3)[0]
    taken = {o.color for o in episode.scene.objects}
    absent = next(c for c in sim.SCENE_COLOR_INDICES if c not in taken)
    write_with_target_color(path, episode, absent)
    with pytest.raises(dataset.DatasetError, match="absent from the scene"):
        dataset.read_episode(path)


def test_min_demo_frames_yield_two_clip_windows():
    """`build_pairs` draws its shift negatives from a second window of the
    same demo."""
    video = np.zeros((dataset.MIN_DEMO_FRAMES, 16, 16, 3), np.uint8)
    assert len(encoder.clip_windows(video)) >= 2


def test_bad_magic_detected(tmp_path):
    path = tmp_path / "ep.ntrj"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(dataset.DatasetError):
        dataset.read_episode(path)


def test_manifest_missing_episode(tmp_path):
    eps = [make_episode(eid=i) for i in range(3)]
    dataset.save_dataset(eps, tmp_path / "ds")
    (tmp_path / "ds" / dataset.episode_filename(1)).unlink()
    with pytest.raises(dataset.DatasetError, match="missing episode"):
        dataset.load_dataset(tmp_path / "ds")


def test_manifest_count_mismatch(tmp_path):
    eps = [make_episode(eid=i) for i in range(2)]
    dataset.save_dataset(eps, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["count"] = 5
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(dataset.DatasetError, match="count"):
        dataset.load_dataset(tmp_path / "ds")


def test_manifest_id_must_match_the_episode_file(tmp_path):
    path = tmp_path / "ds"
    dataset.save_dataset([make_episode(eid=0), make_episode(eid=5)], path)
    shutil.copyfile(path / dataset.episode_filename(0), path / dataset.episode_filename(5))
    with pytest.raises(dataset.DatasetError, match="ep_00000005.ntrj holds episode 0"):
        dataset.load_dataset(path)


def test_manifest_repeating_an_id_raises(tmp_path):
    path = tmp_path / "ds"
    dataset.save_dataset([make_episode(eid=0)], path)
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(count=2, episode_ids=[0, 0])
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(dataset.DatasetError, match="an episode id twice"):
        dataset.load_dataset(path)


def test_read_episode_peak_memory_stays_below_two_and_a_half_file_sizes(tmp_path):
    """The file's bytes and the episode's own arrays are needed; the record
    payloads are views of the bytes, not a third copy."""
    path = tmp_path / "ep.ntrj"
    dataset.write_episode(make_episode(t=500), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        episode = dataset.read_episode(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(episode.frames) == 500
    assert peak < 2.5 * size, (peak, size)


def test_saved_bytes_deterministic(tmp_path):
    ep = make_episode(eid=3, t=6)
    p1, p2 = tmp_path / "a.ntrj", tmp_path / "b.ntrj"
    dataset.write_episode(ep, p1)
    dataset.write_episode(ep, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_crash_while_overwriting_dataset_leaves_it_unloadable(tmp_path, monkeypatch):
    path = tmp_path / "ds"
    dataset.save_dataset([make_episode(eid=i) for i in range(3)], path)
    real_write = dataset.write_episode
    written = []

    def crashing_write(episode, ep_path):
        if written:
            raise OSError("disk full")
        written.append(episode.episode_id)
        real_write(episode, ep_path)

    monkeypatch.setattr(dataset, "write_episode", crashing_write)
    newer = [make_episode(eid=i, t=7, rng=np.random.default_rng(50 + i)) for i in range(3)]
    with pytest.raises(OSError):
        dataset.save_dataset(newer, path)
    with pytest.raises(dataset.DatasetError, match="missing manifest"):
        dataset.load_dataset(path)


def test_resave_over_dataset_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "ds"
    dataset.save_dataset([make_episode(eid=0)], path)
    dataset.save_dataset([make_episode(eid=0)], path)
    assert sorted(p.name for p in path.iterdir()) == [dataset.episode_filename(0),
                                                      "manifest.json"]


def test_repeated_episode_ids_raise_and_leave_the_dataset_unchanged(tmp_path):
    """Episodes sharing an id would overwrite each other's file; saving them
    raises before the old manifest or any episode file changes."""
    path = tmp_path / "ds"
    old = [make_episode(eid=i) for i in range(2)]
    dataset.save_dataset(old, path)
    before = {p.name: p.read_bytes() for p in path.iterdir()}
    repeated = [make_episode(eid=eid, t=7, rng=np.random.default_rng(50 + i))
                for i, eid in enumerate((0, 1, 0))]
    with pytest.raises(ValueError, match=r"repeated episode ids \[0\]"):
        dataset.save_dataset(repeated, path)
    assert {p.name: p.read_bytes() for p in path.iterdir()} == before
    loaded = dataset.load_dataset(path)
    assert len(loaded) == 2
    assert all(dataset.episodes_equal(a, b) for a, b in zip(old, loaded))


@pytest.mark.parametrize("text", ['{"count": 1', "[]", '{"count": 1}',
                                  '{"count": 1, "episode_ids": 5}',
                                  '{"count": 1, "episode_ids": ["x"]}'])
def test_corrupt_manifest_raises_dataset_error(tmp_path, text):
    path = tmp_path / "ds"
    dataset.save_dataset([make_episode(eid=0)], path)
    (path / "manifest.json").write_text(text)
    with pytest.raises(dataset.DatasetError):
        dataset.load_dataset(path)
