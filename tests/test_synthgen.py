import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcurate import dataset, sim, synthgen
from trajcurate.encoder import clip_windows
from trajcurate.sim import Instruction, SceneObject, SceneSpec
from trajcurate.synthgen import CorruptionMixture, CorruptionSpec


def make_scene():
    return SceneSpec(table_color=8, background_color=10, lighting_gain=1.0,
                     objects=(SceneObject("circle", 1, 0.055, (0.40, 0.35)),
                              SceneObject("square", 3, 0.055, (0.62, 0.40)),
                              SceneObject("triangle", 4, 0.052, (0.24, 0.42))))


def instr():
    return Instruction("pick_place", "circle", 1, "plate", "left")


# -- scene editing -------------------------------------------------------------


def test_edit_lighting_only():
    scene = make_scene()
    out = synthgen.edit_initial_scene(scene, {"lighting"}, np.random.default_rng(0))
    assert out.lighting_gain != scene.lighting_gain
    assert out.table_color == scene.table_color
    assert out.background_color == scene.background_color
    assert out.objects == scene.objects


def test_edit_target_object_preserves_footprint():
    scene = make_scene()
    out = synthgen.edit_initial_scene(scene, {"target_object"},
                                      np.random.default_rng(1))
    tgt_old, tgt_new = scene.objects[0], out.objects[0]
    assert tgt_new.position == tgt_old.position
    assert tgt_new.radius == tgt_old.radius
    assert out.objects[1:] == scene.objects[1:]


def test_edit_all_axes_preserves_structure():
    scene = make_scene()
    out = synthgen.edit_initial_scene(scene, synthgen.EDIT_AXES,
                                      np.random.default_rng(2))
    for a, b in zip(scene.objects, out.objects):
        assert a.position == b.position and a.radius == b.radius


def test_edit_empty_axes_rejected():
    with pytest.raises(ValueError):
        synthgen.edit_initial_scene(make_scene(), (), np.random.default_rng(0))


# -- scene format --------------------------------------------------------------

DERIVED_KEYS = ("background_id", "target_index", "distractor_count")
# What SceneSpec held as fields before these keys were derived from the
# others: (background_id, target_index, distractor_count) of sample_scene(rng),
# its apply_palette_map restyle and its edit on every axis, for
# rng = default_rng(seed), seeds 0-7.
VERSION_1_KEYS = [
    (("bg9", 0, 1), ("bg9", 0, 1), ("bg2", 0, 1)),
    (("bg10", 0, 1), ("bg8", 0, 1), ("bg1", 0, 1)),
    (("bg8", 0, 1), ("bg11", 0, 1), ("bg10", 0, 1)),
    (("bg6", 0, 1), ("bg8", 0, 1), ("bg10", 0, 1)),
    (("bg12", 0, 2), ("bg6", 0, 2), ("bg6", 0, 2)),
    (("bg12", 0, 1), ("bg7", 0, 1), ("bg9", 0, 1)),
    (("bg10", 0, 2), ("bg7", 0, 2), ("bg9", 0, 2)),
    (("bg9", 0, 2), ("bg4", 0, 2), ("bg6", 0, 2)),
]


def sampled_scenes(seed):
    rng = np.random.default_rng(seed)
    scene = sim.sample_scene(rng)
    restyled = synthgen.apply_palette_map(
        scene, synthgen.random_palette_map(scene, rng), 1.1)
    edited = synthgen.edit_initial_scene(scene, synthgen.EDIT_AXES, rng)
    return scene, restyled, edited


@pytest.mark.parametrize("seed", range(len(VERSION_1_KEYS)))
def test_scene_dict_writes_the_version_1_keys(seed):
    written = [s.to_dict() for s in sampled_scenes(seed)]
    assert [tuple(d[k] for k in DERIVED_KEYS) for d in written] == list(VERSION_1_KEYS[seed])


@pytest.mark.parametrize("seed", range(len(VERSION_1_KEYS)))
def test_scene_dict_reads_with_and_without_the_derived_keys(seed):
    for scene in sampled_scenes(seed):
        d = json.loads(json.dumps(scene.to_dict()))
        assert SceneSpec.from_dict(d) == scene
        bare = {k: v for k, v in d.items() if k not in DERIVED_KEYS}
        assert SceneSpec.from_dict(bare) == scene


# -- restyle -------------------------------------------------------------------


def demo_episode(seed=0):
    return dataset.collect_demos(1, seed=seed)[0]


def test_restyle_identity_map_is_noop():
    ep = demo_episode()
    out = synthgen.restyle_video(ep, {}, ep.scene.lighting_gain)
    assert np.array_equal(out.frames, ep.frames)


def test_restyle_shares_actions_and_recolours_instruction():
    """The instruction names the target's new colour, so the restyled scene
    still holds the object it names; states and actions are not copied."""
    ep = demo_episode()
    pal = synthgen.random_palette_map(ep.scene, np.random.default_rng(3))
    out = synthgen.restyle_video(ep, pal, ep.scene.lighting_gain)
    assert out.actions is ep.actions and out.states is ep.states
    assert pal[ep.instruction.target_color] != ep.instruction.target_color
    assert out.instruction == dataclasses.replace(
        ep.instruction, target_color=pal[ep.instruction.target_color])
    assert sim.find_target(out.scene, out.instruction) == sim.find_target(ep.scene, ep.instruction)


def test_restyle_keeps_robot_pixels():
    ep = demo_episode()
    pal = synthgen.random_palette_map(ep.scene, np.random.default_rng(4))
    out = synthgen.restyle_video(ep, pal, ep.scene.lighting_gain)
    robot = sim.PALETTE[sim.ROBOT_COLOR_INDEX]
    before = np.all(ep.frames == robot, axis=-1)
    after = np.all(out.frames == robot, axis=-1)
    assert np.array_equal(before, after)
    assert np.array_equal(ep.frames[before], out.frames[after])


def test_restyle_rejects_robot_remap():
    ep = demo_episode()
    with pytest.raises(ValueError):
        synthgen.restyle_video(ep, {sim.ROBOT_COLOR_INDEX: 3}, ep.scene.lighting_gain)
    with pytest.raises(ValueError):
        synthgen.restyle_video(ep, {3: sim.ROBOT_COLOR_INDEX}, ep.scene.lighting_gain)


def test_restyle_rejects_a_map_that_merges_two_scene_colours():
    """With squares 10 and 2 both in colour 10, `find_target` would pick
    square 10 for the target, square 2, and the actions would fail."""
    ep = demo_episode()
    assert [o.color for o in ep.scene.objects if o.shape == "square"] == [10, 2]
    assert ep.instruction.target_color == 2
    with pytest.raises(ValueError, match="one color"):
        synthgen.restyle_video(ep, {2: 10}, ep.scene.lighting_gain)


@pytest.mark.parametrize("demo_seed, palette_seed", [(6, 0), (6, 3), (0, 1)])
def test_restyled_actions_still_pass_oracle(demo_seed, palette_seed):
    """Maps that move the target's colour: the oracle must find it by its
    new colour."""
    ep = demo_episode(seed=demo_seed)
    pal = synthgen.random_palette_map(ep.scene, np.random.default_rng(palette_seed))
    assert pal[ep.instruction.target_color] != ep.instruction.target_color
    out = synthgen.restyle_video(ep, pal, ep.scene.lighting_gain)
    states = sim.rollout(out.scene, sim.initial_state(out.scene), out.actions)
    assert sim.task_success(out.scene, states, out.instruction)


def element_colors(scene):
    """Exact rendered RGB per scene element, the robot aside, keyed by name."""
    table = {"background": tuple(int(v) for v in sim.background_value(
                 scene.background_color, scene.lighting_gain)),
             "table": tuple(int(v) for v in sim.PALETTE[scene.table_color])}
    for name, idx in sim.ZONE_COLOR_INDEX.items():
        table[f"zone:{name}"] = tuple(int(v) for v in sim.PALETTE[idx])
    for i, obj in enumerate(scene.objects):
        table[f"object:{i}"] = tuple(int(v) for v in sim.PALETTE[obj.color])
    return table


def reference_remap(frames, scene, palette_map, new_gain):
    """Per-colour reference: a three-channel equality mask for each colour,
    over its own table of every element, zones included, taken in name
    order, with robot pixels skipped."""
    new_scene = synthgen.apply_palette_map(scene, palette_map, new_gain)
    old_colors = element_colors(scene)
    new_colors = element_colors(new_scene)
    robot = tuple(int(v) for v in sim.PALETTE[sim.ROBOT_COLOR_INDEX])
    value_map = {}
    for key in sorted(old_colors):
        src, dst = old_colors[key], new_colors[key]
        if src != robot and src not in value_map:
            value_map[src] = dst
    out = frames.copy()
    for src, dst in value_map.items():
        if src != dst:
            out[np.all(frames == np.array(src, dtype=np.uint8), axis=-1)] = dst
    return out, new_scene


_colors = st.sampled_from(sim.SCENE_COLOR_INDICES)
_rgb = st.one_of(st.sampled_from([tuple(int(v) for v in c) for c in sim.PALETTE]),
                 st.tuples(*[st.integers(0, 255)] * 3))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), table=_colors, bg=_colors, gain=st.floats(0.5, 1.5),
       object_colors=st.lists(_colors, max_size=3), t=st.integers(1, 3))
def test_remap_frames_matches_per_colour_reference(data, table, bg, gain,
                                                   object_colors, t):
    """Unmapped colours, robot pixels, src == dst pairs and 1-frame videos."""
    objects = [SceneObject(sim.SHAPES[i], c, 0.1, (0.2 + 0.3 * i, 0.4))
               for i, c in enumerate(object_colors)]
    scene = SceneSpec(table_color=table, background_color=bg, lighting_gain=gain,
                      objects=tuple(objects))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    poses = sim.initial_state(scene).object_poses
    frames = np.stack([
        sim.render(scene, sim.WorldState(rng.uniform(-np.pi, np.pi, (2, 2)),
                                         np.array([1.0, 0.0]), poses, (None, None)), 16)
        for _ in range(t)])
    for rgb in data.draw(st.lists(_rgb, max_size=20)):
        frames[rng.integers(t), rng.integers(16), rng.integers(16)] = rgb
    # a map that keeps the scene's colours distinct: the `kept` colours are
    # unmapped, the others go to distinct colours outside `kept` (possibly
    # their own)
    used = sorted({table, bg, *object_colors})
    kept = data.draw(st.sets(st.sampled_from(used)))
    moved = [c for c in used if c not in kept]
    free = [c for c in sim.SCENE_COLOR_INDICES if c not in kept]
    palette_map = dict(zip(moved, data.draw(st.lists(
        st.sampled_from(free), min_size=len(moved), max_size=len(moved), unique=True))))
    new_gain = data.draw(st.one_of(st.just(gain), st.floats(0.5, 1.5)))
    out, new_scene = synthgen.remap_frames(frames, scene, palette_map, new_gain)
    ref, ref_scene = reference_remap(frames, scene, palette_map, new_gain)
    assert out.dtype == np.uint8 and out.shape == frames.shape
    assert np.array_equal(out, ref)
    assert new_scene == ref_scene


def test_remap_frames_gives_a_shared_colour_the_lit_background_target():
    """Off-white lit at 0.52 renders as the gray of the table and the object:
    the background comes first, so its target wins, as in the reference."""
    scene = SceneSpec(table_color=8, background_color=9, lighting_gain=0.52,
                      objects=(SceneObject("circle", 8, 0.1, (0.5, 0.4)),))
    gray = sim.PALETTE[8]
    assert np.array_equal(sim.background_value(9, 0.52), gray)
    frames = sim.render(scene, sim.initial_state(scene), 32)[None]
    palette_map = {9: 1, 8: 2}
    out, _ = synthgen.remap_frames(frames, scene, palette_map, 0.52)
    assert np.array_equal(out, reference_remap(frames, scene, palette_map, 0.52)[0])
    shared = np.all(frames == gray, axis=-1)
    assert shared.sum() > 32 * 32 // 2
    assert np.all(out[shared] == sim.background_value(1, 0.52))


def test_remap_frames_on_a_read_only_clip_window():
    """Encoder pretraining recolours `clip_windows` views, which are strided
    and read-only: the result equals the remap of a contiguous copy, is a new
    writable uint8 array, and the window is left as it was."""
    scene = make_scene()
    rng = np.random.default_rng(4)
    video = sim.replay(scene, rng.uniform(-0.1, 0.1, (79, 6)), 32)
    window = clip_windows(video)[1]
    assert not window.flags.writeable and not window.flags.c_contiguous
    before = window.copy()
    palette_map = synthgen.random_palette_map(scene, rng)
    out, _ = synthgen.remap_frames(window, scene, palette_map, 0.8)
    ref, _ = synthgen.remap_frames(np.ascontiguousarray(window), scene, palette_map, 0.8)
    assert out.dtype == np.uint8 and out.flags.writeable
    assert np.array_equal(out, ref) and not np.array_equal(out, before)
    assert np.array_equal(window, before)


# -- instruction proposal ---------------------------------------------------------


def test_propose_five_balances_hands():
    out = synthgen.propose_instructions(make_scene(), 5, np.random.default_rng(0))
    counts = Counter(i.hand for i in out)
    assert sorted(counts.values()) == [2, 3]
    assert len({(i.behavior, i.target_shape, i.target_color, i.placement, i.hand)
                for i in out}) == 5


def test_propose_two_one_per_hand():
    out = synthgen.propose_instructions(make_scene(), 2, np.random.default_rng(1))
    assert {i.hand for i in out} == {"left", "right"}


def test_propose_single_object_scene_targets_it():
    scene = SceneSpec(table_color=8, background_color=10, lighting_gain=1.0,
                      objects=(SceneObject("circle", 1, 0.055, (0.40, 0.35)),))
    out = synthgen.propose_instructions(scene, 4, np.random.default_rng(2))
    assert all(i.target_shape == "circle" and i.target_color == 1 for i in out)
    assert all(i.behavior != "stack" for i in out)


def test_propose_feasibility_and_errors():
    scene = make_scene()
    for i in synthgen.propose_instructions(scene, 8, np.random.default_rng(3)):
        assert dataset.instruction_feasible(scene, i)
    empty = SceneSpec(table_color=8, background_color=10, lighting_gain=1.0,
                      objects=())
    with pytest.raises(ValueError):
        synthgen.propose_instructions(empty, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        synthgen.propose_instructions(scene, 10_000, np.random.default_rng(0))


# -- corrupted generation ------------------------------------------------------------


def succeeds(sample, instruction):
    """Does the rollout of the sample's clean expert actions do the task?"""
    states = sim.rollout(sample.scene, sim.initial_state(sample.scene),
                         sample.hidden_actions)
    return sim.task_success(sample.scene, states, instruction)


def test_clean_generation_matches_expert_replay():
    scene = make_scene()
    spec = CorruptionSpec("none", 0.0, seed=1)
    sample = synthgen.generate_neural_video(scene, instr(), spec, seed=10)
    video = sim.replay(scene, sample.hidden_actions)
    assert np.array_equal(sample.video, video)
    assert succeeds(sample, instr())


def test_generation_deterministic():
    scene = make_scene()
    spec = CorruptionSpec("tele_grab", 0.8, seed=2)
    a = synthgen.generate_neural_video(scene, instr(), spec, seed=11)
    b = synthgen.generate_neural_video(scene, instr(), spec, seed=11)
    assert np.array_equal(a.video, b.video)
    # hidden_actions is set for clean samples only
    clean = CorruptionSpec("none", 0.0, seed=2)
    a = synthgen.generate_neural_video(scene, instr(), clean, seed=11)
    b = synthgen.generate_neural_video(scene, instr(), clean, seed=11)
    assert np.array_equal(a.video, b.video)
    assert np.array_equal(a.hidden_actions, b.hidden_actions)
    assert succeeds(a, instr())


# The physical effects of a corruption are measured on the corrupted state
# sequence of a scripted-expert rollout; a sample carries only its video.


def expert_states(seed):
    scene = make_scene()
    actions = dataset.scripted_expert(scene, instr(), seed)
    return sim.rollout(scene, sim.initial_state(scene), actions)


def corrupt(states, kind, seed):
    target = sim.find_target(make_scene(), instr())
    return synthgen._corrupt_states(states, target, CorruptionSpec(kind, 1.0, seed))


def effector_jump(states):
    eff = np.array([[sim.effector_position(s, arm) for arm in range(2)] for s in states])
    return float(np.linalg.norm(np.diff(eff, axis=0), axis=-1).max())


def grasp_gap(states):
    return max((float(np.hypot(*(s.object_poses[obj] - sim.effector_position(s, arm))))
                for s in states for arm, obj in enumerate(s.attachment)
                if obj is not None), default=0.0)


def free_drift(states):
    """Largest one-step move of an object held in neither frame."""
    return max((float(np.hypot(*(cur.object_poses[obj] - prev.object_poses[obj])))
                for prev, cur in zip(states, states[1:])
                for obj in range(len(cur.object_poses))
                if obj not in cur.attachment and obj not in prev.attachment),
               default=0.0)


def test_tele_grab_shortens_and_creates_jump():
    clean = expert_states(12)
    cut = corrupt(clean, "tele_grab", 3)
    assert len(cut) < len(clean)
    assert effector_jump(cut) > effector_jump(clean) * 2


def state_bytes(states):
    return [b"".join(a.tobytes() for a in (s.joints, s.gripper, s.object_poses))
            for s in states]


def test_offset_grasp_records_gap():
    clean = expert_states(13)
    before = state_bytes(clean)
    shifted = corrupt(clean, "offset_grasp", 4)
    assert state_bytes(clean) == before, "corruption wrote into the clean states"
    assert grasp_gap(clean) <= sim.R_GRASP < grasp_gap(shifted)
    assert sim.task_success(make_scene(), shifted, instr())


def test_object_drift_moves_free_object():
    clean = expert_states(14)
    before = state_bytes(clean)
    drifted = corrupt(clean, "object_drift", 5)
    assert state_bytes(clean) == before, "corruption wrote into the clean states"
    assert free_drift(clean) == 0.0
    assert free_drift(drifted) > 0.005
    assert sim.task_success(make_scene(), drifted, instr())


def test_temporal_jitter_zero_magnitude_is_clean():
    scene = make_scene()
    clean = synthgen.generate_neural_video(scene, instr(),
                                           CorruptionSpec("none", 0.0, 6), seed=15)
    jit0 = synthgen.generate_neural_video(
        scene, instr(), CorruptionSpec("temporal_jitter", 0.0, 6), seed=15)
    assert np.array_equal(clean.video, jit0.video)


def test_wrong_task_double_oracle():
    scene = make_scene()
    requested = instr()
    for seed in range(16, 20):
        executed = synthgen._wrong_task(scene, requested, seed)
        assert (executed.behavior, executed.target_shape, executed.target_color,
                executed.placement) != (requested.behavior, requested.target_shape,
                                        requested.target_color, requested.placement)
        sample = synthgen.generate_neural_video(
            scene, requested, CorruptionSpec("wrong_task", 0.5, 7), seed=seed)
        clean = synthgen.generate_neural_video(
            scene, executed, CorruptionSpec("none", 0.0, 7), seed=seed)
        assert sample.instruction == requested
        assert np.array_equal(sample.video, clean.video)
        assert not succeeds(clean, requested)
        assert succeeds(clean, executed)


# -- candidate sampling ----------------------------------------------------------------


def test_sample_candidates_n1_equals_generate():
    scene = make_scene()
    mixture = CorruptionMixture(weights={"none": 1.0})
    out = synthgen.sample_candidates(scene, instr(), 1, mixture, base_seed=20)
    direct = synthgen.generate_neural_video(
        scene, instr(), out[0].gt_corruption, seed=20)
    assert np.array_equal(out[0].video, direct.video)


def test_sample_candidates_clean_mixture_distinct_seeds():
    scene = make_scene()
    mixture = CorruptionMixture(weights={"none": 1.0})
    out = synthgen.sample_candidates(scene, instr(), 4, mixture, base_seed=30)
    assert [s.gt_corruption.kind for s in out] == ["none"] * 4
    assert len({s.seed for s in out}) == 4


def test_sample_candidates_deterministic():
    scene = make_scene()
    mixture = CorruptionMixture()
    a = synthgen.sample_candidates(scene, instr(), 4, mixture, base_seed=40)
    b = synthgen.sample_candidates(scene, instr(), 4, mixture, base_seed=40)
    for x, y in zip(a, b):
        assert np.array_equal(x.video, y.video)
        assert x.gt_corruption == y.gt_corruption


def test_mixture_frequencies():
    mixture = CorruptionMixture()
    rng = np.random.default_rng(0)
    kinds = Counter(mixture.draw(rng).kind for _ in range(1000))
    for kind, expected in mixture.weights.items():
        assert abs(kinds[kind] / 1000 - expected) < 0.05


@pytest.mark.parametrize("weights, match", [
    ({"none": 0.5, "objet_drift": 0.5}, "unknown corruption kind 'objet_drift'"),
    ({"none": 1.0, "tele_grab": -0.1}, "non-negative"),
    ({"none": float("nan")}, "finite"),
    ({"none": float("inf")}, "finite"),
    ({"none": 0.0, "tele_grab": 0.0}, "positive sum"),
    ({}, "positive sum"),
])
def test_mixture_rejects_bad_weights_when_built(weights, match):
    """Not at the first draw, which may come long after."""
    with pytest.raises(ValueError, match=match):
        CorruptionMixture(weights=weights)


def test_mixture_with_a_zero_weight_never_draws_that_kind():
    mixture = CorruptionMixture(weights={"none": 1.0, "wrong_task": 0.0})
    rng = np.random.default_rng(1)
    assert {mixture.draw(rng).kind for _ in range(50)} == {"none"}


# -- persistence ------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["none", "offset_grasp"], ids=["clean", "corrupted"])
def test_sample_episode_roundtrip(tmp_path, kind):
    scene = make_scene()
    sample = synthgen.generate_neural_video(
        scene, instr(), CorruptionSpec(kind, 0.6 if kind != "none" else 0.0, 8), seed=50)
    assert (sample.hidden_actions is None) == (kind != "none")
    sample.idm_actions = np.zeros((len(sample.video) - 1, 6))
    sample.alignment_score = 0.25
    ep = synthgen.sample_to_episode(sample)
    assert ep.embodiment == "neural"
    assert np.all(ep.states == 0)
    dataset.write_episode(ep, tmp_path / "s.ntrj")
    back = synthgen.episode_to_sample(dataset.read_episode(tmp_path / "s.ntrj"))
    assert back.gt_corruption == sample.gt_corruption
    assert back.alignment_score == 0.25
    assert np.array_equal(back.video, sample.video)
    if sample.hidden_actions is None:
        assert back.hidden_actions is None
    else:
        assert back.hidden_actions.dtype == np.float64
        assert back.hidden_actions.shape == sample.hidden_actions.shape
        assert back.hidden_actions.tobytes() == sample.hidden_actions.tobytes()


def test_unlabeled_sample_rejected():
    scene = make_scene()
    sample = synthgen.generate_neural_video(
        scene, instr(), CorruptionSpec("none", 0.0, 9), seed=60)
    with pytest.raises(ValueError):
        synthgen.sample_to_episode(sample)
