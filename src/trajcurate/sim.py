"""Deterministic 2D bimanual manipulation world.

Two planar 2-link arms over a unit-square table, kinematic grasp physics
(attached objects track the effector exactly, nothing else moves), and a
palette-based rasterizer. Everything is a pure function of its inputs, so
replays are byte-reproducible: the same (scene, initial state, actions,
resolution) always yields the identical video.

The rasterizer tests each object, arm link and gripper disc only within its
pixel window: the shape's world bounding box mapped to pixel indices, widened
by one pixel on every side and clipped to the frame. The window is
conservative because the per-pixel test inside it is unchanged; a pixel just
outside the box fails that test anyway, and the extra pixel of margin absorbs
any rounding in mapping the box to indices. So a frame holds the same bytes
as when every shape is tested over the whole frame, at a fraction of the
cost. The table and zones are axis-aligned, so they are painted as row and
column slices computed once per resolution. Background, table and zones
depend only on (background colour, lighting gain, table colour, resolution):
they are painted once into a read-only backdrop, kept for the last such key
(one miss per video, since its frames share it), and each frame starts from
a copy of it. Per-frame geometry (poses, joint angles, arm points) is read
into Python floats, whose arithmetic is the same IEEE float64 arithmetic as
numpy scalars' at a fraction of the interpreter cost.

Conventions: world x grows right, world y grows up; frames are row-major RGB
with the origin at the top-left. Actions are ACTION_DIM-vectors
[dL1, dL2, gripL, dR1, dR2, gripR], a block of three per arm in HANDS order:
joint deltas are clipped to +-A_MAX, gripper commands are absolute in [0, 1]
with >= 0.5 meaning closed. `step` executes `clip_actions` of its action, and
the IDM's labels come out of it too. Lighting gains lie in GAIN_RANGE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# -- world constants -------------------------------------------------------------

A_MAX = 0.15                  # rad per step, per joint
R_GRASP = 0.05                # table-widths
R_STACK = 0.08
D_MIN_PUSH = 0.12
ARM_BASES = ((0.35, 0.0), (0.65, 0.0))
LINK_LENGTHS = (0.55, 0.55)
WORLD_LO, WORLD_HI = -0.25, 1.25          # rendered world window
DEFAULT_RESOLUTION = 64
GAIN_RANGE = (0.5, 1.5)       # any scene's lighting gain, inclusive

ACTION_DIM = 6
_ACTION_BOUNDS = np.array([[-A_MAX, -A_MAX, 0.0] * 2, [A_MAX, A_MAX, 1.0] * 2])   # low, high

# 16-color palette; index 0 is the robot color and is reserved: scene elements
# never use it, which is what makes "recolor everything except the robot"
# operations exactly checkable at the pixel level.
PALETTE = np.array([
    (250, 60, 240),    # 0 robot (reserved)
    (200, 60, 60),     # 1 red
    (60, 160, 60),     # 2 green
    (70, 90, 200),     # 3 blue
    (220, 180, 60),    # 4 yellow
    (150, 90, 40),     # 5 brown
    (90, 200, 200),    # 6 cyan
    (160, 60, 160),    # 7 purple
    (120, 120, 120),   # 8 gray
    (230, 230, 230),   # 9 off-white
    (40, 40, 80),      # 10 navy
    (240, 140, 40),    # 11 orange
    (120, 200, 90),    # 12 light green
    (170, 170, 110),   # 13 zone: left
    (110, 170, 170),   # 14 zone: right
    (190, 150, 150),   # 15 zone: plate
], dtype=np.uint8)

ROBOT_COLOR_INDEX = 0
SCENE_COLOR_INDICES = tuple(range(1, 13))
ZONE_COLOR_INDEX = {"left": 13, "right": 14, "plate": 15}

ZONES = {
    "left": (0.06, 0.60, 0.30, 0.88),     # (x0, y0, x1, y1)
    "right": (0.70, 0.60, 0.94, 0.88),
    "plate": (0.38, 0.62, 0.62, 0.86),
}

SHAPES = ("circle", "square", "triangle")
BEHAVIORS = ("pick_place", "push", "stack")
PLACEMENTS = ("left", "right", "plate")
HANDS = ("left", "right")
TABLE_COLORS = (5, 8, 9, 10)
BACKGROUND_COLORS = (6, 8, 9, 10, 12)
LIGHTING_RANGE = (0.7, 1.3)
OBJECT_COUNT = (2, 3)        # inclusive range of objects per scene

EFFECTOR_RADIUS_CLOSED = 0.06
EFFECTOR_RADIUS_OPEN = 0.012
ARM_THICKNESS = 0.022


@dataclass(frozen=True)
class Instruction:
    """Structured task command over the four task axes."""
    behavior: str
    target_shape: str
    target_color: int            # palette index
    placement: str
    hand: str

    def __post_init__(self):
        for name, allowed in (("behavior", BEHAVIORS), ("target_shape", SHAPES),
                              ("target_color", SCENE_COLOR_INDICES),
                              ("placement", PLACEMENTS), ("hand", HANDS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return {"behavior": self.behavior, "target_shape": self.target_shape,
                "target_color": int(self.target_color), "placement": self.placement,
                "hand": self.hand}

    @classmethod
    def from_dict(cls, d: dict) -> "Instruction":
        return cls(d["behavior"], d["target_shape"], int(d["target_color"]),
                   d["placement"], d["hand"])

    def text(self) -> str:
        return (f"use the {self.hand} hand to {self.behavior} the "
                f"{self.target_shape} of color {self.target_color} "
                f"to the {self.placement} zone")


@dataclass(frozen=True)
class SceneObject:
    shape: str
    color: int                   # one of SCENE_COLOR_INDICES
    radius: float
    position: tuple[float, float]

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius {self.radius!r} is not finite and positive")
        if not all(math.isfinite(v) for v in self.position):
            raise ValueError(f"position {self.position!r} is not finite")

    def to_dict(self) -> dict:
        return {"shape": self.shape, "color": int(self.color),
                "radius": float(self.radius),
                "position": [float(self.position[0]), float(self.position[1])]}

    @classmethod
    def from_dict(cls, d: dict) -> "SceneObject":
        return cls(d["shape"], int(d["color"]), float(d["radius"]),
                   (float(d["position"][0]), float(d["position"][1])))


@dataclass(frozen=True)
class SceneSpec:
    table_color: int
    background_color: int
    lighting_gain: float
    objects: tuple[SceneObject, ...]

    def __post_init__(self):
        if not (GAIN_RANGE[0] <= self.lighting_gain <= GAIN_RANGE[1]):
            raise ValueError(f"lighting_gain outside {list(GAIN_RANGE)}")
        # the robot and zone colors are reserved: no scene element takes them
        for color in self.colors:
            if color not in SCENE_COLOR_INDICES:
                raise ValueError(f"color {color!r} is not a scene color index")

    @property
    def colors(self) -> tuple[int, ...]:
        """The table's, the background's, then each object's colour, repeats kept."""
        return (self.table_color, self.background_color, *(o.color for o in self.objects))

    def to_dict(self) -> dict:
        # background_id, target_index and distractor_count follow from the
        # other fields; version-1 files still carry them, and readers ignore them
        return {"table_color": int(self.table_color),
                "background_id": f"bg{self.background_color}",
                "background_color": int(self.background_color),
                "lighting_gain": float(self.lighting_gain),
                "objects": [o.to_dict() for o in self.objects],
                "target_index": 0,
                "distractor_count": max(len(self.objects) - 1, 0)}

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        return cls(int(d["table_color"]), int(d["background_color"]),
                   float(d["lighting_gain"]),
                   tuple(SceneObject.from_dict(o) for o in d["objects"]))


@dataclass(frozen=True)
class WorldState:
    joints: np.ndarray           # (2, 2) radians
    gripper: np.ndarray          # (2,) in [0, 1], >= 0.5 closed
    object_poses: np.ndarray     # (n, 2)
    attachment: tuple[int | None, int | None]   # object id per arm

    def proprio(self) -> np.ndarray:
        """6-dim proprioceptive vector: four joint angles then two grippers."""
        return np.concatenate([self.joints.reshape(-1), self.gripper])


# -- kinematics -------------------------------------------------------------------

def arm_points(state: WorldState, arm: int):
    """(base, elbow, effector) for one arm, each an (x, y) tuple of Python
    floats: the same IEEE arithmetic as float64 arrays, at scalar cost."""
    return _arm_points(state.joints, arm)


def _arm_points(joints: np.ndarray, arm: int):
    bx, by = ARM_BASES[arm]
    t1, t2 = joints[arm].tolist()
    l1, l2 = LINK_LENGTHS
    ex, ey = bx + l1 * math.cos(t1), by + l1 * math.sin(t1)
    return ((bx, by), (ex, ey),
            (ex + l2 * math.cos(t1 + t2), ey + l2 * math.sin(t1 + t2)))


def effector_position(state: WorldState, arm: int) -> np.ndarray:
    return np.array(arm_points(state, arm)[2])


def inverse_kinematics(target, arm: int) -> tuple[float, float]:
    """Analytic planar IK; unreachable targets are clamped to the reach circle."""
    base = np.array(ARM_BASES[arm])
    l1, l2 = LINK_LENGTHS
    d = np.asarray(target, dtype=float) - base
    r = float(np.hypot(d[0], d[1]))
    r = min(max(r, 1e-9), l1 + l2 - 1e-9)
    cos_t2 = (r * r - l1 * l1 - l2 * l2) / (2 * l1 * l2)
    cos_t2 = min(1.0, max(-1.0, cos_t2))
    # elbow bends outward: left arm positive, right arm negative
    t2 = math.acos(cos_t2) * (1.0 if arm == 0 else -1.0)
    t1 = math.atan2(d[1], d[0]) - math.atan2(l2 * math.sin(t2), l1 + l2 * math.cos(t2))
    return t1, t2


def initial_state(scene: SceneSpec) -> WorldState:
    joints = np.array([inverse_kinematics((0.16, 0.30), 0),
                       inverse_kinematics((0.84, 0.30), 1)])
    poses = np.array([o.position for o in scene.objects], dtype=float).reshape(-1, 2)
    return WorldState(joints, np.zeros(2), poses, (None, None))


def clip_actions(actions) -> np.ndarray:
    """Any (..., ACTION_DIM) array clipped column by column to the command
    `step` executes: joint deltas to +-A_MAX, grippers to [0, 1]."""
    return np.clip(actions, *_ACTION_BOUNDS)


def step(state: WorldState, action) -> WorldState:
    """Advance one tick by `clip_actions(action)`; a non-finite action raises
    ValueError. Each arm releases its object on an opening grip or carries it;
    then, lower arm first, a closing grip takes the nearest free object."""
    act = np.asarray(action, dtype=float).reshape(ACTION_DIM)
    if not np.all(np.isfinite(act)):
        raise ValueError("action must be finite")
    act = clip_actions(act).reshape(2, 3)     # per arm: two joint deltas, its grip
    joints = state.joints + act[:, :2]
    grip = act[:, 2].copy()
    was, now = state.gripper.tolist(), grip.tolist()
    poses = state.object_poses.copy()
    attachment = list(state.attachment)

    for arm in range(2):
        if was[arm] >= 0.5 > now[arm]:
            attachment[arm] = None
        elif attachment[arm] is not None:
            poses[attachment[arm]] = _arm_points(joints, arm)[2]

    for arm in range(2):
        if was[arm] < 0.5 <= now[arm] and attachment[arm] is None:
            eff = np.array(_arm_points(joints, arm)[2])
            best, best_d = None, R_GRASP
            for i in range(len(poses)):
                dist = float(np.hypot(*(poses[i] - eff)))
                if dist <= best_d and i not in attachment:
                    best, best_d = i, dist
            if best is not None:
                attachment[arm] = best
                poses[best] = eff

    return WorldState(joints, grip, poses, tuple(attachment))


def rollout(scene: SceneSpec, init: WorldState, actions) -> list[WorldState]:
    """`init`, then the state after each action; `step` never writes into a state."""
    states = [init]
    for act in actions:
        states.append(step(states[-1], act))
    return states


# -- rendering --------------------------------------------------------------------

_GRIDS: dict[int, tuple] = {}
# The last scene backdrop painted, keyed by everything it depends on. One
# entry: consecutive frames of a video share the key, and lighting gains are
# continuous, so a cache of every key seen would grow without bound.
_BACKDROP: dict[tuple, np.ndarray] = {}


def _rect_window(xs, ys, rect) -> tuple[slice, slice]:
    """Rows and columns whose pixel centres lie in the closed world rect.
    xs rises and ys falls monotonically, so each set is one contiguous run."""
    x0, y0, x1, y1 = rect
    rows = np.flatnonzero((ys >= y0) & (ys <= y1))
    cols = np.flatnonzero((xs >= x0) & (xs <= x1))
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def _grid(resolution: int):
    """Pixel-centre world x per column and y per row, the table's window and
    each zone's (palette index, window); computed once per resolution."""
    cached = _GRIDS.get(resolution)
    if cached is None:
        px = (np.arange(resolution) + 0.5) / resolution
        xs = WORLD_LO + px * (WORLD_HI - WORLD_LO)
        ys = WORLD_HI - px * (WORLD_HI - WORLD_LO)       # row 0 is the top
        zones = tuple((ZONE_COLOR_INDEX[name], _rect_window(xs, ys, rect))
                      for name, rect in ZONES.items())
        cached = (xs, ys, _rect_window(xs, ys, (0.0, 0.0, 1.0, 1.0)), zones)
        _GRIDS[resolution] = cached
    return cached


def _box_window(xs, ys, x0, y0, x1, y1):
    """Window of every pixel whose centre can lie in the world box
    [x0, x1] x [y0, y1], widened by one pixel on each side so that rounding
    in the centre coordinates never leaves a covered pixel outside; returns
    the window and its centre coordinates shaped to broadcast."""
    n = len(xs)
    scale = n / (WORLD_HI - WORLD_LO)
    c0 = max(math.floor((x0 - WORLD_LO) * scale - 0.5) - 1, 0)
    c1 = min(math.ceil((x1 - WORLD_LO) * scale - 0.5) + 2, n)
    r0 = max(math.floor((WORLD_HI - y1) * scale - 0.5) - 1, 0)
    r1 = min(math.ceil((WORLD_HI - y0) * scale - 0.5) + 2, n)
    rows, cols = slice(r0, max(r0, r1)), slice(c0, max(c0, c1))
    return (rows, cols), xs[None, cols], ys[rows, None]


def background_value(color_index: int, gain: float) -> np.ndarray:
    """Rendered background RGB: palette color scaled by lighting gain, clamped."""
    return np.clip(np.round(PALETTE[color_index].astype(np.float64) * gain),
                   0, 255).astype(np.uint8)


def _backdrop(scene: SceneSpec, resolution: int) -> np.ndarray:
    """Read-only frame of background, table and zones for the scene."""
    key = (scene.background_color, scene.lighting_gain, scene.table_color,
           resolution)
    img = _BACKDROP.get(key)
    if img is None:
        _, _, table, zones = _grid(resolution)
        img = np.empty((resolution, resolution, 3), dtype=np.uint8)
        img[:] = background_value(scene.background_color, scene.lighting_gain)
        img[table] = PALETTE[scene.table_color]
        for color, window in zones:
            img[window] = PALETTE[color]
        img.flags.writeable = False
        _BACKDROP.clear()
        _BACKDROP[key] = img
    return img


# Half-width of each shape's bounding box in units of its radius: the
# triangle's base spans |dx| <= 0.6 * 1.8r, the circle and square reach r.
_SHAPE_HALF_WIDTH = 1.08


def _object_mask(gx, gy, obj: SceneObject, position):
    dx = gx - position[0]
    dy = gy - position[1]
    r = obj.radius
    if obj.shape == "circle":
        return dx * dx + dy * dy <= r * r
    if obj.shape == "square":
        return (np.abs(dx) <= r) & (np.abs(dy) <= r)
    # upward triangle: apex at +r, base at -0.8r
    return (dy >= -0.8 * r) & (dy <= r) & (np.abs(dx) <= 0.6 * (r - dy))


def _segment_mask(gx, gy, p0, p1, width):
    """Pixels within `width` of the segment p0-p1, whose ends are distinct
    float tuples (the ends of an arm link); the in-place steps compute the
    same values, in the same order, as dx = gx - (x0 + t * vx) and
    dy = gy - (y0 + t * vy) squared and summed."""
    (x0, y0), (x1, y1) = p0, p1
    vx, vy = x1 - x0, y1 - y0
    t = (gx - x0) * vx + (gy - y0) * vy
    t /= vx * vx + vy * vy
    t.clip(0.0, 1.0, out=t)
    dx = t * vx
    dx += x0
    np.subtract(gx, dx, out=dx)
    dx *= dx
    dy = t
    dy *= vy
    dy += y0
    np.subtract(gy, dy, out=dy)
    dy *= dy
    dx += dy
    return dx <= width * width


def render(scene: SceneSpec, state: WorldState,
           resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Rasterize one frame: background, table, zones, objects, arms, grippers.
    Each shape's test runs on its window's row and column coordinates, which
    broadcast to the same values as full-frame grids, so each pixel's bits
    match a full-frame rasterization."""
    if resolution < 16:
        raise ValueError("resolution must be at least 16x16")
    xs, ys, _, _ = _grid(resolution)
    img = _backdrop(scene, resolution).copy()

    poses = state.object_poses.tolist()
    for i, obj in enumerate(scene.objects):
        x, y = poses[i]
        h = _SHAPE_HALF_WIDTH * obj.radius
        window, gx, gy = _box_window(xs, ys, x - h, y - h, x + h, y + h)
        img[window][_object_mask(gx, gy, obj, (x, y))] = PALETTE[obj.color]

    robot = PALETTE[ROBOT_COLOR_INDEX]
    w = ARM_THICKNESS
    gripper = state.gripper.tolist()
    for arm in range(2):
        base, elbow, eff = arm_points(state, arm)
        for p0, p1 in ((base, elbow), (elbow, eff)):
            window, gx, gy = _box_window(
                xs, ys, min(p0[0], p1[0]) - w, min(p0[1], p1[1]) - w,
                max(p0[0], p1[0]) + w, max(p0[1], p1[1]) + w)
            img[window][_segment_mask(gx, gy, p0, p1, w)] = robot
        r_eff = (EFFECTOR_RADIUS_CLOSED if gripper[arm] >= 0.5
                 else EFFECTOR_RADIUS_OPEN)
        ex, ey = eff
        window, gx, gy = _box_window(xs, ys, ex - r_eff, ey - r_eff,
                                     ex + r_eff, ey + r_eff)
        img[window][(gx - ex) ** 2 + (gy - ey) ** 2 <= r_eff * r_eff] = robot
    return img


def replay(scene: SceneSpec, actions, resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Video of len(actions)+1 frames from the scene's initial state; frame k
    shows the state after k steps."""
    states = rollout(scene, initial_state(scene), actions)
    return np.stack([render(scene, s, resolution) for s in states])


# -- task oracles -----------------------------------------------------------------

def find_target(scene: SceneSpec, instruction: Instruction) -> int:
    for i, obj in enumerate(scene.objects):
        if obj.shape == instruction.target_shape and obj.color == instruction.target_color:
            return i
    raise ValueError("instruction targets an object absent from the scene")


def zone_center(name: str) -> np.ndarray:
    x0, y0, x1, y1 = ZONES[name]
    return np.array([(x0 + x1) / 2.0, (y0 + y1) / 2.0])


def in_zone(point, name: str) -> bool:
    x0, y0, x1, y1 = ZONES[name]
    return bool(x0 <= point[0] <= x1 and y0 <= point[1] <= y1)


def stack_base_index(scene: SceneSpec, target: int, placement: str) -> int:
    """Base object for stacking: the non-target object nearest the placement zone."""
    center = zone_center(placement)
    best, best_d = None, np.inf
    for i, obj in enumerate(scene.objects):
        if i == target:
            continue
        d = float(np.hypot(*(np.array(obj.position) - center)))
        if d < best_d:
            best, best_d = i, d
    if best is None:
        raise ValueError("stack requires a second object")
    return best


def task_success(scene: SceneSpec, states: list[WorldState],
                 instruction: Instruction) -> bool:
    target = find_target(scene, instruction)
    final = states[-1]
    attached = target in final.attachment
    pos = final.object_poses[target]

    if instruction.behavior == "pick_place":
        return in_zone(pos, instruction.placement) and not attached

    if instruction.behavior == "push":
        start = states[0].object_poses[target]
        toward = zone_center(instruction.placement) - start
        norm = float(np.hypot(*toward))
        if norm < 1e-9:
            return in_zone(pos, instruction.placement) and not attached
        moved = float((pos - start) @ (toward / norm))
        return moved >= D_MIN_PUSH and in_zone(pos, instruction.placement) and not attached

    base = stack_base_index(scene, target, instruction.placement)
    base_attached = base in final.attachment
    dist = float(np.hypot(*(pos - final.object_poses[base])))
    return dist <= R_STACK and not attached and not base_attached


# -- scene sampling ---------------------------------------------------------------

SPAWN_REGION = (0.12, 0.24, 0.88, 0.50)


def sample_scene(rng: np.random.Generator) -> SceneSpec:
    table = int(rng.choice(TABLE_COLORS))
    bg_choices = [c for c in BACKGROUND_COLORS if c != table]
    bg = int(rng.choice(bg_choices))
    gain = float(rng.uniform(*LIGHTING_RANGE))
    n_obj = int(rng.integers(OBJECT_COUNT[0], OBJECT_COUNT[1] + 1))

    color_pool = [c for c in SCENE_COLOR_INDICES if c not in (table, bg)]
    colors = rng.choice(color_pool, size=n_obj, replace=False)
    objects = []
    positions: list[np.ndarray] = []
    x0, y0, x1, y1 = SPAWN_REGION
    for i in range(n_obj):
        radius = float(rng.uniform(0.048, 0.068))
        for _ in range(200):
            pos = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])
            if all(np.hypot(*(pos - p)) > 0.17 for p in positions):
                break
        positions.append(pos)
        shape = str(rng.choice(SHAPES))
        objects.append(SceneObject(shape, int(colors[i]), radius,
                                   (float(pos[0]), float(pos[1]))))
    return SceneSpec(table_color=table, background_color=bg, lighting_gain=gain,
                     objects=tuple(objects))


CANONICAL_TABLE = 8
CANONICAL_BACKGROUND = 10
CANONICAL_OBJECT_CYCLE = (1, 2, 3, 4, 11, 12)


def canonical_scene(scene: SceneSpec) -> SceneSpec:
    """Same geometry, fixed appearance: used for replay-side rendering."""
    objects = tuple(replace(o, color=CANONICAL_OBJECT_CYCLE[i % len(CANONICAL_OBJECT_CYCLE)])
                    for i, o in enumerate(scene.objects))
    return replace(scene, table_color=CANONICAL_TABLE,
                   background_color=CANONICAL_BACKGROUND,
                   lighting_gain=1.0, objects=objects)
