import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcurate import sim
from trajcurate.sim import Instruction, SceneObject, SceneSpec, WorldState


def make_scene(objects, table=8, bg=10, gain=1.0):
    return SceneSpec(table_color=table, background_color=bg, lighting_gain=gain,
                     objects=tuple(objects))


def two_object_scene():
    return make_scene([
        SceneObject("circle", 1, 0.055, (0.40, 0.35)),
        SceneObject("square", 3, 0.055, (0.62, 0.40)),
    ])


# -- forward kinematics -----------------------------------------------------------


def effector_from_base(joints, arm):
    """The simulator's effector for `arm` at (shoulder, elbow) `joints`,
    relative to that arm's base."""
    both = np.array([joints, joints], dtype=float)
    state = WorldState(both, np.zeros(2), np.zeros((0, 2)), (None, None))
    return sim.effector_position(state, arm) - np.array(sim.ARM_BASES[arm])


def test_fk_straight_arm():
    l1, l2 = sim.LINK_LENGTHS
    for arm in (0, 1):
        assert np.allclose(effector_from_base((0.0, 0.0), arm), [l1 + l2, 0.0])


def test_fk_rotated():
    l1, l2 = sim.LINK_LENGTHS
    for arm in (0, 1):
        out = effector_from_base((math.pi / 2, 0.0), arm)
        assert np.allclose(out, [0.0, l1 + l2], atol=1e-12)


def test_fk_bent_elbow():
    l1, l2 = sim.LINK_LENGTHS
    expected = np.array([l1 * math.sqrt(2) / 2, l1 * math.sqrt(2) / 2 + l2])
    for arm in (0, 1):
        out = effector_from_base((math.pi / 4, math.pi / 4), arm)
        assert np.max(np.abs(out - expected)) < 1e-12


def test_ik_fk_roundtrip():
    rng = np.random.default_rng(0)
    for arm in (0, 1):
        base = np.array(sim.ARM_BASES[arm])
        for _ in range(50):
            target = base + rng.uniform(-0.9, 0.9, size=2)
            r = np.hypot(*(target - base))
            if not 0.05 < r < sum(sim.LINK_LENGTHS) - 0.02:
                continue
            joints = sim.inverse_kinematics(target, arm)
            assert np.allclose(effector_from_base(joints, arm) + base, target, atol=1e-9)


# -- stepping and grasping --------------------------------------------------------


def test_zero_action_is_identity():
    scene = two_object_scene()
    state = sim.initial_state(scene)
    nxt = sim.step(state, np.zeros(6))
    assert np.array_equal(nxt.joints, state.joints)
    assert np.array_equal(nxt.gripper, state.gripper)
    assert np.array_equal(nxt.object_poses, state.object_poses)
    assert nxt.attachment == state.attachment


def test_grasp_on_close_within_radius():
    scene = two_object_scene()
    state = sim.initial_state(scene)
    joints = np.array([sim.inverse_kinematics((0.40 + 0.01, 0.35), 0),
                       state.joints[1]])
    state = WorldState(joints, np.zeros(2), state.object_poses.copy(), (None, None))
    nxt = sim.step(state, np.array([0, 0, 1.0, 0, 0, 0]))
    assert nxt.attachment[0] == 0
    assert np.allclose(nxt.object_poses[0], sim.effector_position(nxt, 0))


def test_no_grasp_beyond_radius():
    scene = two_object_scene()
    state = sim.initial_state(scene)
    joints = np.array([sim.inverse_kinematics((0.40 + sim.R_GRASP + 0.02, 0.35), 0),
                       state.joints[1]])
    state = WorldState(joints, np.zeros(2), state.object_poses.copy(), (None, None))
    nxt = sim.step(state, np.array([0, 0, 1.0, 0, 0, 0]))
    assert nxt.attachment[0] is None


def test_simultaneous_grasp_lower_arm_wins():
    scene = make_scene([SceneObject("circle", 1, 0.055, (0.50, 0.40))])
    state = sim.initial_state(scene)
    joints = np.array([sim.inverse_kinematics((0.50, 0.40), 0),
                       sim.inverse_kinematics((0.50, 0.40), 1)])
    state = WorldState(joints, np.zeros(2), state.object_poses.copy(), (None, None))
    nxt = sim.step(state, np.array([0, 0, 1.0, 0, 0, 1.0]))
    assert nxt.attachment == (0, None)


def test_release_leaves_object_in_place():
    scene = two_object_scene()
    state = sim.initial_state(scene)
    joints = np.array([sim.inverse_kinematics((0.40, 0.35), 0), state.joints[1]])
    state = WorldState(joints, np.zeros(2), state.object_poses.copy(), (None, None))
    state = sim.step(state, np.array([0, 0, 1.0, 0, 0, 0]))
    state = sim.step(state, np.array([0.1, 0.05, 1.0, 0, 0, 0]))
    carried = state.object_poses[0].copy()
    released = sim.step(state, np.array([0.1, 0.0, 0.0, 0, 0, 0]))
    assert released.attachment[0] is None
    assert np.array_equal(released.object_poses[0], carried)


def test_attached_object_tracks_effector_exactly():
    scene = two_object_scene()
    state = sim.initial_state(scene)
    joints = np.array([sim.inverse_kinematics((0.40, 0.35), 0), state.joints[1]])
    state = WorldState(joints, np.zeros(2), state.object_poses.copy(), (None, None))
    state = sim.step(state, np.array([0, 0, 1.0, 0, 0, 0]))
    rng = np.random.default_rng(1)
    for _ in range(20):
        act = np.concatenate([rng.uniform(-0.1, 0.1, 2), [1.0],
                              rng.uniform(-0.1, 0.1, 2), [0.0]])
        state = sim.step(state, act)
        assert np.array_equal(state.object_poses[0], sim.effector_position(state, 0))


def test_action_clipping():
    scene = two_object_scene()
    state = sim.initial_state(scene)
    nxt = sim.step(state, np.array([10.0, -10.0, 0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(nxt.joints[0] - state.joints[0], [sim.A_MAX, -sim.A_MAX])


def test_released_object_is_grasped_by_the_other_arm_in_the_same_tick():
    """Every release comes before any grasp: an object arm 0 lets go of is
    free when arm 1 closes on it in the same tick."""
    scene = make_scene([SceneObject("circle", 1, 0.055, (0.50, 0.40))])
    joints = np.array([sim.inverse_kinematics((0.50, 0.40), 0),
                       sim.inverse_kinematics((0.50, 0.40), 1)])
    state = WorldState(joints, np.array([1.0, 0.0]), sim.initial_state(scene).object_poses,
                       (0, None))
    nxt = sim.step(state, np.array([0, 0, 0.0, 0, 0, 1.0]))
    assert nxt.attachment == (None, 0)
    assert np.array_equal(nxt.object_poses[0], sim.effector_position(nxt, 1))


_far = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)
_near = st.sampled_from([-sim.A_MAX, sim.A_MAX, 0.0, 0.49, 0.5, 1.0, -1.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(action=st.lists(st.one_of(_far, _near), min_size=6, max_size=6),
       joints=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       gripper=st.lists(st.sampled_from([0.0, 0.49, 0.5, 1.0]), min_size=2, max_size=2),
       attached=st.sampled_from([(None, None), (0, None), (None, 1), (1, 0)]),
       offsets=st.lists(st.floats(-0.06, 0.06), min_size=4, max_size=4))
def test_step_executes_the_clipped_action(action, joints, gripper, attached, offsets):
    """`step` of any finite action equals `step` of its clip bit for bit; the
    objects start near the effectors, so grasps and releases occur."""
    joints = np.array(joints).reshape(2, 2)
    state = WorldState(joints, np.array(gripper), np.zeros((2, 2)), (None, None))
    poses = np.array([sim.effector_position(state, arm) for arm in range(2)])
    state = WorldState(joints, np.array(gripper), poses + np.reshape(offsets, (2, 2)),
                       attached)
    action = np.array(action)
    clipped = sim.clip_actions(action)
    a, b = sim.step(state, action), sim.step(state, clipped)
    for name in ("joints", "gripper", "object_poses"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.attachment == b.attachment
    assert np.array_equal(sim.clip_actions(clipped), clipped)
    bound = np.array([sim.A_MAX, sim.A_MAX, 1.0] * 2)
    assert np.all(np.abs(clipped) <= bound)
    assert np.all(clipped[[2, 5]] >= 0.0)


def test_clip_actions_bounds_and_any_leading_shape():
    a = sim.A_MAX
    assert np.array_equal(sim.clip_actions([9.0, -9.0, 9.0, -9.0, 9.0, -9.0]),
                          [a, -a, 1.0, -a, a, 0.0])
    actions = np.random.default_rng(0).normal(0.0, 5.0, size=(3, 4, sim.ACTION_DIM))
    clipped = sim.clip_actions(actions)
    assert clipped.shape == actions.shape
    assert np.array_equal(clipped[1, 2], sim.clip_actions(actions[1, 2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 2, 5])
def test_step_rejects_a_non_finite_action(bad, column):
    """A non-finite entry raises rather than being clipped to a bound."""
    action = np.zeros(sim.ACTION_DIM)
    action[column] = bad
    with pytest.raises(ValueError, match="finite"):
        sim.step(sim.initial_state(two_object_scene()), action)


# -- rendering ---------------------------------------------------------------------


def test_render_deterministic():
    scene = two_object_scene()
    state = sim.initial_state(scene)
    a = sim.render(scene, state, 64)
    b = sim.render(scene, state, 64)
    assert np.array_equal(a, b)


def test_render_empty_scene_colors():
    scene = make_scene([])
    state = sim.initial_state(scene)
    frame = sim.render(scene, state, 64)
    allowed = {tuple(sim.background_value(scene.background_color, 1.0)),
               tuple(sim.PALETTE[scene.table_color]),
               tuple(sim.PALETTE[sim.ROBOT_COLOR_INDEX])}
    allowed |= {tuple(sim.PALETTE[i]) for i in sim.ZONE_COLOR_INDEX.values()}
    seen = {tuple(px) for px in frame.reshape(-1, 3)}
    assert seen <= allowed


def test_lighting_gain_halves_background():
    objects = [SceneObject("circle", 1, 0.055, (0.40, 0.35))]
    bright = make_scene(objects, gain=1.0)
    state = sim.initial_state(bright)
    dim = make_scene(objects, gain=0.5)
    f1 = sim.render(bright, state, 64)
    f05 = sim.render(dim, state, 64)
    bg1 = sim.background_value(bright.background_color, 1.0)
    bg05 = sim.background_value(dim.background_color, 0.5)
    mask = np.all(f1 == bg1, axis=-1)
    assert mask.any()
    assert np.all(f05[mask] == bg05)
    assert np.array_equal(bg05, np.clip(np.round(bg1 * 0.5), 0, 255).astype(np.uint8))


def test_render_minimum_resolution():
    scene = two_object_scene()
    with pytest.raises(ValueError):
        sim.render(scene, sim.initial_state(scene), 8)


# Full-frame reference rasterizer: every shape is tested at every pixel of the
# frame. `sim.render` must produce the same bytes from its windowed tests.


def _ref_rect_mask(gx, gy, rect):
    x0, y0, x1, y1 = rect
    return (gx >= x0) & (gx <= x1) & (gy >= y0) & (gy <= y1)


def _ref_object_mask(gx, gy, obj, position):
    dx = gx - position[0]
    dy = gy - position[1]
    r = obj.radius
    if obj.shape == "circle":
        return dx * dx + dy * dy <= r * r
    if obj.shape == "square":
        return (np.abs(dx) <= r) & (np.abs(dy) <= r)
    return (dy >= -0.8 * r) & (dy <= r) & (np.abs(dx) <= 0.6 * (r - dy))


def _ref_segment_mask(gx, gy, p0, p1, width):
    vx, vy = p1[0] - p0[0], p1[1] - p0[1]
    seg2 = vx * vx + vy * vy
    if seg2 < 1e-18:
        return (gx - p0[0]) ** 2 + (gy - p0[1]) ** 2 <= width * width
    t = np.clip(((gx - p0[0]) * vx + (gy - p0[1]) * vy) / seg2, 0.0, 1.0)
    dx = gx - (p0[0] + t * vx)
    dy = gy - (p0[1] + t * vy)
    return dx * dx + dy * dy <= width * width


def reference_render(scene, state, resolution):
    px = (np.arange(resolution) + 0.5) / resolution
    xs = sim.WORLD_LO + px * (sim.WORLD_HI - sim.WORLD_LO)
    ys = sim.WORLD_HI - px * (sim.WORLD_HI - sim.WORLD_LO)
    gx, gy = np.meshgrid(xs, ys)
    img = np.empty((resolution, resolution, 3), dtype=np.uint8)
    img[:] = sim.background_value(scene.background_color, scene.lighting_gain)
    img[_ref_rect_mask(gx, gy, (0.0, 0.0, 1.0, 1.0))] = sim.PALETTE[scene.table_color]
    for name, rect in sim.ZONES.items():
        img[_ref_rect_mask(gx, gy, rect)] = sim.PALETTE[sim.ZONE_COLOR_INDEX[name]]
    for i, obj in enumerate(scene.objects):
        img[_ref_object_mask(gx, gy, obj, state.object_poses[i])] = sim.PALETTE[obj.color]
    robot = sim.PALETTE[sim.ROBOT_COLOR_INDEX]
    for arm in range(2):
        base, elbow, eff = sim.arm_points(state, arm)
        img[_ref_segment_mask(gx, gy, base, elbow, sim.ARM_THICKNESS)] = robot
        img[_ref_segment_mask(gx, gy, elbow, eff, sim.ARM_THICKNESS)] = robot
        r_eff = (sim.EFFECTOR_RADIUS_CLOSED if state.gripper[arm] >= 0.5
                 else sim.EFFECTOR_RADIUS_OPEN)
        img[(gx - eff[0]) ** 2 + (gy - eff[1]) ** 2 <= r_eff * r_eff] = robot
    return img


_unit = st.floats(-0.5, 1.5)
_objects = st.lists(st.builds(
    lambda shape, color, radius, x, y: SceneObject(shape, color, radius, (x, y)),
    st.sampled_from(sim.SHAPES), st.sampled_from(sim.SCENE_COLOR_INDICES),
    st.floats(0.005, 0.3), _unit, _unit), max_size=3)


@settings(max_examples=300, deadline=None)
@given(objects=_objects,
       joints=st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
       gripper=st.lists(st.sampled_from([0.0, 0.49, 0.5, 1.0]), min_size=2, max_size=2),
       table=st.sampled_from(sim.SCENE_COLOR_INDICES),
       bg=st.sampled_from(sim.SCENE_COLOR_INDICES),
       gain=st.floats(0.5, 1.5),
       resolution=st.sampled_from([16, 17, 63, 64, 96]))
def test_render_matches_full_frame_reference(objects, joints, gripper,
                                             table, bg, gain, resolution):
    scene = make_scene(objects, table=table, bg=bg, gain=gain)
    state = WorldState(np.array(joints).reshape(2, 2), np.array(gripper),
                       np.array([o.position for o in objects]).reshape(-1, 2),
                       (None, None))
    frame = sim.render(scene, state, resolution)
    assert frame.shape == (resolution, resolution, 3)
    assert np.array_equal(frame, reference_render(scene, state, resolution))


def test_render_backdrop_cache_does_not_leak_between_scenes():
    """Scenes that differ only in background colour, lighting gain, table
    colour or resolution, rendered alternately, each match the reference; and
    writing into a returned frame does not reach the next render."""
    objects = [SceneObject("circle", 1, 0.055, (0.40, 0.35))]
    base = (make_scene(objects), 64)
    state = sim.initial_state(base[0])
    for variant in [(make_scene(objects, bg=12), 64), (make_scene(objects, gain=1.2), 64),
                    (make_scene(objects, table=5), 64), (make_scene(objects), 48)]:
        for scene, resolution in (base, variant, variant, base, base):
            frame = sim.render(scene, state, resolution)
            assert np.array_equal(frame, reference_render(scene, state, resolution))
            frame[:] = 255 - frame


# -- replay ------------------------------------------------------------------------


def test_replay_empty_actions_single_frame():
    scene = two_object_scene()
    video = sim.replay(scene, [])
    assert video.shape[0] == 1


def test_replay_deterministic_and_length_law():
    scene = two_object_scene()
    rng = np.random.default_rng(2)
    actions = rng.uniform(-0.1, 0.1, size=(17, 6))
    v1 = sim.replay(scene, actions)
    v2 = sim.replay(scene, actions)
    assert np.array_equal(v1, v2)
    assert len(v1) == len(actions) + 1


# -- task oracles ------------------------------------------------------------------


def test_task_success_requires_release():
    scene = two_object_scene()
    state = sim.initial_state(scene)
    instruction = Instruction("pick_place", "circle", 1, "plate", "left")
    joints = np.array([sim.inverse_kinematics((0.40, 0.35), 0), state.joints[1]])
    state = WorldState(joints, np.zeros(2), state.object_poses.copy(), (None, None))
    states = [state, sim.step(state, np.array([0, 0, 1.0, 0, 0, 0]))]
    target = sim.zone_center("plate")
    for _ in range(60):
        cur = sim.effector_position(states[-1], 0)
        tgt = np.array(sim.inverse_kinematics(target, 0))
        diff = (tgt - states[-1].joints[0] + np.pi) % (2 * np.pi) - np.pi
        act = np.zeros(6)
        act[:2] = np.clip(diff, -sim.A_MAX, sim.A_MAX)
        act[2] = 1.0
        states.append(sim.step(states[-1], act))
        if np.hypot(*(sim.effector_position(states[-1], 0) - target)) < 0.02:
            break
    # object now inside the plate zone but still attached -> no success
    assert sim.in_zone(states[-1].object_poses[0], "plate")
    assert not sim.task_success(scene, states, instruction)
    released = sim.step(states[-1], np.zeros(6))
    assert sim.task_success(scene, states + [released], instruction)


def test_task_success_nothing_moved():
    scene = two_object_scene()
    instruction = Instruction("pick_place", "circle", 1, "plate", "left")
    assert not sim.task_success(scene, [sim.initial_state(scene)], instruction)


def test_task_success_unknown_target():
    scene = two_object_scene()
    instruction = Instruction("pick_place", "triangle", 7, "plate", "left")
    with pytest.raises(ValueError):
        sim.task_success(scene, [sim.initial_state(scene)], instruction)


def test_canonical_scene_preserves_geometry():
    scene = two_object_scene()
    canon = sim.canonical_scene(scene)
    assert canon.lighting_gain == 1.0
    for a, b in zip(scene.objects, canon.objects):
        assert a.position == b.position and a.radius == b.radius and a.shape == b.shape


def test_scene_rejects_robot_color():
    with pytest.raises(ValueError):
        make_scene([SceneObject("circle", sim.ROBOT_COLOR_INDEX, 0.05, (0.4, 0.4))])


@pytest.mark.parametrize("table, bg, color", [
    (sim.ROBOT_COLOR_INDEX, 10, 1), (8, -1, 1), (13, 10, 1), (8, 15, 1), (8, 10, 99)])
def test_scene_rejects_colors_outside_the_scene_indices(table, bg, color):
    """The robot color would break the robot-pixel rule, -1 would index the
    palette from its end, and 99 fails only when rendered."""
    with pytest.raises(ValueError, match="scene color"):
        make_scene([SceneObject("circle", color, 0.05, (0.4, 0.4))], table=table, bg=bg)


@pytest.mark.parametrize("shape, radius, position", [
    ("hexagon", 0.05, (0.4, 0.4)),
    ("circle", math.nan, (0.4, 0.4)), ("circle", math.inf, (0.4, 0.4)),
    ("circle", 0.0, (0.4, 0.4)), ("circle", -0.05, (0.4, 0.4)),
    ("circle", 0.05, (math.nan, 0.4)), ("circle", 0.05, (0.4, -math.inf))])
def test_scene_object_rejects_unknown_shape_and_bad_geometry(shape, radius, position):
    """An unknown shape would render as a triangle; a NaN fails only when rendered."""
    with pytest.raises(ValueError):
        SceneObject(shape, 1, radius, position)


@pytest.mark.parametrize("field, value", [
    ("behavior", "throw"), ("target_shape", "hexagon"),
    ("target_color", sim.ROBOT_COLOR_INDEX), ("target_color", 13),
    ("target_color", 99), ("placement", "floor"), ("hand", "both")])
def test_instruction_rejects_unknown_values(field, value):
    """No scene object takes the robot or a zone colour, so an instruction
    naming one could never be carried out."""
    fields = {"behavior": "pick_place", "target_shape": "circle", "target_color": 1,
              "placement": "plate", "hand": "left", field: value}
    with pytest.raises(ValueError, match=f"unknown {field}"):
        Instruction(**fields)
