"""Surrogate generation stage for synthetic manipulation videos.

Stands in for a learned video generator: scene-level appearance edits
(structure-preserving), action-preserving video restyling via exact palette
remaps, structured instruction proposal, and a "neural video" generator that
renders expert rollouts and then injects seeded, magnitude-controlled
physical corruptions. Each sample carries two report-only fields: the hidden
ground-truth corruption label and, for clean samples only, the expert actions
that made the video. A judge sees the video, instruction, scene and the
pseudo-action labels, never these two fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from . import sim
from .dataset import (
    EMBODIMENT_NEURAL,
    Episode,
    ExpertFailure,
    InfeasibleInstruction,
    instruction_feasible,
    sample_instruction,
    scripted_expert,
)
from .seeding import derive_seed, rng_for
from .sim import Instruction, SceneSpec, WorldState

CORRUPTION_KINDS = ("none", "tele_grab", "offset_grasp", "object_drift",
                    "temporal_jitter", "wrong_task")
MAGNITUDE_RANGE = (0.25, 1.0)   # of every drawn corruption but "none"

EDIT_AXES = ("table", "target_object", "lighting", "background")


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if not (0.0 <= self.magnitude <= 1.0):
            raise ValueError("magnitude outside [0, 1]")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "magnitude": float(self.magnitude),
                "seed": int(self.seed)}

    @classmethod
    def from_dict(cls, d: dict) -> "CorruptionSpec":
        return cls(d["kind"], float(d["magnitude"]), int(d["seed"]))


@dataclass(frozen=True)
class CorruptionMixture:
    """Sampling weights per corruption kind."""
    weights: dict[str, float] = field(default_factory=lambda: {
        "none": 0.6, "tele_grab": 0.1, "offset_grasp": 0.1,
        "object_drift": 0.1, "temporal_jitter": 0.1})

    def __post_init__(self):
        for kind, weight in self.weights.items():
            if kind not in CORRUPTION_KINDS:
                raise ValueError(f"unknown corruption kind {kind!r}")
            if not (math.isfinite(weight) and weight >= 0.0):
                raise ValueError(f"weight {weight!r} of {kind!r} is not finite and non-negative")
        if not sum(self.weights.values()) > 0.0:
            raise ValueError("corruption weights must have a positive sum")

    def draw(self, rng: np.random.Generator) -> CorruptionSpec:
        kinds = sorted(self.weights)
        probs = np.array([self.weights[k] for k in kinds], dtype=float)
        probs = probs / probs.sum()
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        mag = 0.0 if kind == "none" else float(rng.uniform(*MAGNITUDE_RANGE))
        return CorruptionSpec(kind, mag, seed=int(rng.integers(2**31)))


@dataclass
class NeuralSample:
    """Generated video + metadata. gt_corruption and hidden_actions are
    report-only: no curation decision may read them."""
    sample_id: int
    video: np.ndarray                      # (T, H, W, 3) uint8
    instruction: Instruction
    scene: SceneSpec
    gt_corruption: CorruptionSpec
    seed: int
    idm_actions: np.ndarray | None = None  # (T-1, 6) once labeled
    alignment_score: float | None = None
    hidden_actions: np.ndarray | None = None   # clean expert actions, report-only

    def __post_init__(self):
        if self.idm_actions is not None and len(self.idm_actions) != len(self.video) - 1:
            raise ValueError("idm_actions must have T-1 rows")


# -- scene editing (structure-preserving) -----------------------------------------------


def _pick_color(rng: np.random.Generator, exclude: set[int]) -> int:
    pool = [c for c in sim.SCENE_COLOR_INDICES if c not in exclude]
    return int(rng.choice(pool))


def edit_initial_scene(scene: SceneSpec, axes: Iterable[str],
                       rng: np.random.Generator) -> SceneSpec:
    """Appearance-only scene edit; object positions and radii never change.
    The "target_object" axis gives object 0 a new colour and shape."""
    axes = tuple(axes)
    if not axes:
        raise ValueError("need at least one edit axis")
    for axis in axes:
        if axis not in EDIT_AXES:
            raise ValueError(f"unknown edit axis {axis!r}")
    used = set(scene.colors)
    out = scene
    for axis in ("table", "background"):
        if axis in axes:
            name = f"{axis}_color"
            new = _pick_color(rng, used)
            used.discard(getattr(out, name))
            used.add(new)
            out = replace(out, **{name: new})
    if "lighting" in axes:
        out = replace(out, lighting_gain=float(rng.uniform(*sim.GAIN_RANGE)))
    if "target_object" in axes and out.objects:
        new_color = _pick_color(rng, used)
        new_shape = str(rng.choice(sim.SHAPES))
        target = replace(out.objects[0], color=new_color, shape=new_shape)
        out = replace(out, objects=(target, *out.objects[1:]))
    return out


# -- action-preserving restyle -----------------------------------------------------------


def apply_palette_map(scene: SceneSpec, palette_map: dict[int, int],
                      new_gain: float) -> SceneSpec:
    if sim.ROBOT_COLOR_INDEX in (*palette_map, *palette_map.values()):
        raise ValueError("palette map must not remap or introduce the reserved "
                         "robot color")
    remap = lambda c: palette_map.get(c, c)
    used = set(scene.colors)
    if len({remap(c) for c in used}) < len(used):
        raise ValueError("palette map gives two of the scene's colors one color")
    objects = tuple(replace(o, color=remap(o.color)) for o in scene.objects)
    return replace(scene, table_color=remap(scene.table_color),
                   background_color=remap(scene.background_color),
                   lighting_gain=float(new_gain), objects=objects)


def _packed_colors(scene: SceneSpec) -> list[int]:
    """Rendered RGB as r << 16 | g << 8 | b of the lit background, each object
    in index order, then the table. Zones never change colour, and no scene
    element renders in the robot's, so neither is listed."""
    rgb = np.stack([sim.background_value(scene.background_color, scene.lighting_gain),
                    *(sim.PALETTE[o.color] for o in scene.objects),
                    sim.PALETTE[scene.table_color]]).astype(np.uint32)
    return (rgb[:, 0] << 16 | rgb[:, 1] << 8 | rgb[:, 2]).tolist()


def remap_frames(frames: np.ndarray, scene: SceneSpec,
                 palette_map: dict[int, int],
                 new_gain: float) -> tuple[np.ndarray, SceneSpec]:
    """Exact per-pixel recolor of non-robot pixels; returns (frames, new scene)."""
    new_scene = apply_palette_map(scene, palette_map, new_gain)
    value_map: dict[int, int] = {}
    for src, dst in zip(_packed_colors(scene), _packed_colors(new_scene)):
        value_map.setdefault(src, dst)      # a repeated source keeps its first target
    # One uint32 per pixel (r << 16 | g << 8 | b), built in place. Each colour
    # is one equality test on the packed plane and one scalar fill of its copy,
    # which is cheaper than writing 3-byte rows through a mask; the recoloured
    # plane is then unpacked into a new C-ordered uint8 array. The equality
    # tests read the unfilled plane, so a filled pixel never matches again.
    packed = frames[..., 0].astype(np.uint32)
    packed <<= 8
    packed |= frames[..., 1]
    packed <<= 8
    packed |= frames[..., 2]
    out32 = packed.copy()
    for src, dst in value_map.items():
        if src != dst:
            out32[packed == src] = dst
    # assigning uint32 to uint8 keeps the low byte of each value
    out = np.empty(frames.shape, dtype=np.uint8)
    out[..., 2] = out32
    out32 >>= 8
    out[..., 1] = out32
    out32 >>= 8
    out[..., 0] = out32
    return out, new_scene


def restyle_video(episode: Episode, palette_map: dict[int, int],
                  new_gain: float) -> Episode:
    """Recolor a whole episode and the target colour its instruction names;
    the states and actions are shared as-is."""
    frames, new_scene = remap_frames(episode.frames, episode.scene,
                                     palette_map, new_gain)
    color = episode.instruction.target_color
    return replace(
        episode, scene=new_scene, frames=frames,
        instruction=replace(episode.instruction, target_color=palette_map.get(color, color)),
        provenance={**episode.provenance,
                    "restyle": {str(k): int(v) for k, v in palette_map.items()}})


def random_palette_map(scene: SceneSpec, rng: np.random.Generator) -> dict[int, int]:
    """Injective recolor of the scene's palette entries."""
    used = list(dict.fromkeys(scene.colors))
    targets = rng.choice(sim.SCENE_COLOR_INDICES, size=len(used), replace=False)
    return {src: int(dst) for src, dst in zip(used, targets)}


# -- instruction proposal -----------------------------------------------------------------


def propose_instructions(scene: SceneSpec, k: int,
                         rng: np.random.Generator) -> list[Instruction]:
    """k distinct feasible instructions; hand assignments alternate so the
    left/right counts differ by at most one."""
    if k < 1:
        raise ValueError("need k >= 1")
    if not scene.objects:
        raise ValueError("scene has no objects")
    combos = []
    descriptors = sorted({(o.shape, o.color) for o in scene.objects})
    for behavior in sim.BEHAVIORS:
        for shape, color in descriptors:
            for placement in sim.PLACEMENTS:
                probe = Instruction(behavior, shape, color, placement, "left")
                if instruction_feasible(scene, probe):
                    combos.append((behavior, shape, color, placement))
    if k > 2 * len(combos):
        raise ValueError(f"k={k} exceeds {2 * len(combos)} feasible distinct instructions")
    order = list(rng.permutation(len(combos)))
    first_hand = int(rng.integers(2))
    out: list[Instruction] = []
    used: set[tuple] = set()
    for i in range(k):
        hand = sim.HANDS[(first_hand + i) % 2]
        for j in range(len(combos)):
            combo = combos[order[(i + j) % len(combos)]]
            if (combo, hand) not in used:
                used.add((combo, hand))
                behavior, shape, color, placement = combo
                out.append(Instruction(behavior, shape, color, placement, hand))
                break
    return out


# -- corrupted generation --------------------------------------------------------------------


def _attachment_frames(states: list[WorldState]) -> list[int]:
    return [i for i, s in enumerate(states) if any(a is not None for a in s.attachment)]


def _shift_object(state: WorldState, obj: int, delta: np.ndarray) -> WorldState:
    """`state` with one object moved; nothing writes into a state's arrays,
    so the new state shares all but `object_poses`."""
    poses = state.object_poses.copy()
    poses[obj] = poses[obj] + delta
    return replace(state, object_poses=poses)


def _corrupt_states(states: list[WorldState], target: int,
                    spec: CorruptionSpec,
                    protected: tuple[int, ...] = ()) -> list[WorldState]:
    rng = np.random.default_rng(spec.seed)
    m = spec.magnitude
    if spec.kind in ("none", "wrong_task"):
        return states

    attached = _attachment_frames(states)
    if spec.kind == "tele_grab":
        if not attached:
            return states
        g = attached[0]
        if g <= 2:
            return states
        k = min(g - 2, max(2, int(round(m * (g - 2)))))
        return states[:g - k] + states[g:]

    if spec.kind == "offset_grasp":
        if not attached:
            return states
        angle = rng.uniform(0, 2 * np.pi)
        dist = sim.R_GRASP * (1.2 + 1.8 * m)
        delta = dist * np.array([np.cos(angle), np.sin(angle)])
        out = list(states)
        for i in attached:
            if target in states[i].attachment:
                out[i] = _shift_object(states[i], target, delta)
        return out

    if spec.kind == "object_drift":
        # prefer drifting an uninvolved object so the instruction still reads
        # as accomplished and the failure is purely physical
        n_obj = len(states[0].object_poses)
        grabbed = {a for s in states for a in s.attachment if a is not None}
        avoid = grabbed | {target} | set(protected)
        candidates = [i for i in range(n_obj) if i not in avoid]
        drift_obj = candidates[0] if candidates else target
        release = attached[-1] + 1 if attached else 2
        if len(states) - release >= 8:
            window = (release, len(states))
        else:
            end = attached[0] - 1 if attached else len(states)
            window = (2, max(3, end))
        a, b = window
        span = b - a
        if span < 2:
            return states
        angle = rng.uniform(0, 2 * np.pi)
        total = (0.08 + 0.22 * m) * np.array([np.cos(angle), np.sin(angle)])
        out = list(states)
        for i in range(a, len(states)):
            ramp = min(1.0, (i - a + 1) / span)
            pos = states[i].object_poses[drift_obj] + ramp * total
            clamped = np.clip(pos, 0.05, 0.95) - states[i].object_poses[drift_obj]
            out[i] = _shift_object(states[i], drift_obj, clamped)
        return out

    if spec.kind == "temporal_jitter":
        n_events = int(round(m * 8))
        if n_events == 0:
            return states
        out = list(states)
        t = len(out)
        for _ in range(n_events):
            width = 2 + int(rng.integers(0, 3))
            if t <= width + 2:
                break
            i = int(rng.integers(1, t - width - 1))
            if rng.integers(2) == 0:
                out[i:i + width] = [out[i]] * width           # freeze
            else:
                out[i:i + width] = list(reversed(out[i:i + width]))
        return out

    raise AssertionError(spec.kind)


def _wrong_task(scene: SceneSpec, instruction: Instruction,
                seed: int) -> Instruction:
    """The instruction a wrong_task sample executes instead of the request,
    or the request itself when 50 draws find none."""
    # the executed task must differ in what the success oracle can see
    # (behavior/target/placement), not merely in the acting hand
    rng = np.random.default_rng(derive_seed(seed, "wrong-task"))
    key = (instruction.behavior, instruction.target_shape,
           instruction.target_color, instruction.placement)
    for _ in range(50):
        candidate = sample_instruction(scene, rng)
        if (candidate.behavior, candidate.target_shape,
                candidate.target_color, candidate.placement) != key:
            return candidate
    return instruction


def generate_neural_video(scene: SceneSpec, instruction: Instruction,
                          corruption: CorruptionSpec, seed: int,
                          sample_id: int = 0) -> NeuralSample:
    """Expert rollout + seeded corruption, rendered in the scene's own look."""
    if not instruction_feasible(scene, instruction):
        raise InfeasibleInstruction(instruction.text())
    executed = (_wrong_task(scene, instruction, seed)
                if corruption.kind == "wrong_task" else instruction)

    actions = None
    for attempt in range(10):
        try:
            actions = scripted_expert(scene, executed,
                                      derive_seed(seed, "gen-expert", attempt))
            break
        except ExpertFailure:
            continue
    if actions is None:
        raise ExpertFailure("generator could not produce a base rollout")

    states = sim.rollout(scene, sim.initial_state(scene), actions)
    target = sim.find_target(scene, executed)
    protected = []
    if executed.behavior == "stack":
        protected.append(sim.stack_base_index(scene, target, executed.placement))
    corrupted = _corrupt_states(states, target, corruption, tuple(protected))
    frames = np.stack([sim.render(scene, s) for s in corrupted])
    return NeuralSample(
        sample_id=sample_id,
        video=frames,
        instruction=instruction,
        scene=scene,
        gt_corruption=corruption,
        seed=seed,
        hidden_actions=actions if corruption.kind == "none" else None,
    )


def sample_candidates(scene: SceneSpec, instruction: Instruction, n: int,
                      mixture: CorruptionMixture, base_seed: int) -> list[NeuralSample]:
    """n candidates with consecutive seeds and independently drawn corruption."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = []
    for i in range(n):
        seed = base_seed + i
        corruption = mixture.draw(rng_for(seed, "corruption"))
        out.append(generate_neural_video(scene, instruction, corruption, seed,
                                         sample_id=i))
    return out


# -- persistence --------------------------------------------------------------------------


def sample_to_episode(sample: NeuralSample) -> Episode:
    """Neural samples persist as episodes: zero proprio, IDM actions, hidden
    provenance (corruption label, hidden actions, score)."""
    if sample.idm_actions is None:
        raise ValueError("label the sample before persisting it as an episode")
    t = len(sample.video)
    provenance = {
        "generator_seed": int(sample.seed),
        "corruption": sample.gt_corruption.to_dict(),
        "hidden_actions": (None if sample.hidden_actions is None
                           else sample.hidden_actions.tolist()),
        "alignment_score": sample.alignment_score,
    }
    return Episode(
        episode_id=sample.sample_id,
        embodiment=EMBODIMENT_NEURAL,
        scene=sample.scene,
        instruction=sample.instruction,
        frames=sample.video,
        states=np.zeros((t, 6)),
        actions=sample.idm_actions,
        provenance=provenance,
    )


def episode_to_sample(episode: Episode) -> NeuralSample:
    prov = episode.provenance
    hidden = prov.get("hidden_actions")
    return NeuralSample(
        sample_id=episode.episode_id,
        video=episode.frames,
        instruction=episode.instruction,
        scene=episode.scene,
        gt_corruption=CorruptionSpec.from_dict(prov["corruption"]),
        seed=int(prov["generator_seed"]),
        idm_actions=episode.actions,
        alignment_score=prov.get("alignment_score"),
        hidden_actions=None if hidden is None else np.array(hidden, dtype=np.float64),
    )
