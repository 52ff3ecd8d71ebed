"""Scripted-expert demonstration collection and the on-disk episode format.

Demonstrations stand in for teleoperated data: a waypoint controller drives
one arm through approach / grasp / transport / release phases with seeded
jitter, and every collected episode is verified against the task-success
oracle before it is stored.

Episodes persist as one NTRJ file each, in the record layout of `records`,
plus a JSON manifest written last, so a dataset directory is either complete
or visibly partial.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import records, sim
from .seeding import derive_seed, rng_for
from .sim import A_MAX, ACTION_DIM, D_MIN_PUSH, Instruction, SceneSpec

MAGIC = b"NTRJ"
VERSION = 1

EMBODIMENT_REAL = "real"
EMBODIMENT_NEURAL = "neural"
DEMO_ATTEMPTS = 12      # scene and expert draws per demonstration
MAX_MOVE_STEPS = 140    # controller steps to reach one waypoint
GRIP_STEPS = 3          # steps holding each gripper command
DWELL_STEPS = 4         # steps holding still after the retreat
# Shorter episodes are re-drawn, so every demonstration yields at least two
# clip windows for pair construction downstream.
MIN_DEMO_FRAMES = 81


class DatasetError(RuntimeError):
    pass


class InfeasibleInstruction(ValueError):
    pass


class ExpertFailure(RuntimeError):
    pass


@dataclass
class Episode:
    episode_id: int
    embodiment: str
    scene: SceneSpec
    instruction: Instruction
    frames: np.ndarray                 # (T, H, W, 3) uint8
    states: np.ndarray                 # (T, 6) float64
    actions: np.ndarray                # (T-1, 6) float64
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.frames = np.ascontiguousarray(self.frames, dtype=np.uint8)
        self.states = np.ascontiguousarray(self.states, dtype=np.float64)
        self.actions = np.ascontiguousarray(self.actions, dtype=np.float64)
        t = len(self.frames)
        if (self.frames.ndim != 4 or self.frames.shape[-1] != 3
                or self.states.shape != (t, 6) or self.actions.shape != (t - 1, ACTION_DIM)):
            raise ValueError(f"need frames (T, H, W, 3), states (T, 6) and actions "
                             f"(T-1, 6), got {self.frames.shape}, {self.states.shape} "
                             f"and {self.actions.shape}")
        if self.embodiment not in (EMBODIMENT_REAL, EMBODIMENT_NEURAL):
            raise ValueError(f"unknown embodiment {self.embodiment!r}")
        if self.embodiment == EMBODIMENT_NEURAL and np.any(self.states != 0.0):
            raise ValueError("neural episodes carry zero proprioceptive states")
        sim.find_target(self.scene, self.instruction)   # raises if it is absent


def episodes_equal(a: Episode, b: Episode) -> bool:
    return (a.episode_id == b.episode_id
            and a.embodiment == b.embodiment
            and a.scene == b.scene
            and a.instruction == b.instruction
            and np.array_equal(a.frames, b.frames)
            and np.array_equal(a.states, b.states)
            and np.array_equal(a.actions, b.actions)
            and a.provenance == b.provenance)


# -- instruction sampling -----------------------------------------------------------


def instruction_feasible(scene: SceneSpec, instruction: Instruction) -> bool:
    try:
        target = sim.find_target(scene, instruction)
    except ValueError:
        return False
    if instruction.behavior == "stack":
        return len(scene.objects) >= 2
    if instruction.behavior == "push":
        start = np.array(scene.objects[target].position)
        dist = float(np.hypot(*(sim.zone_center(instruction.placement) - start)))
        return dist >= D_MIN_PUSH + 0.05
    return True


def sample_instruction(scene: SceneSpec, rng: np.random.Generator) -> Instruction:
    for _ in range(100):
        behavior = str(rng.choice(sim.BEHAVIORS))
        obj = scene.objects[int(rng.integers(len(scene.objects)))]
        instruction = Instruction(
            behavior=behavior,
            target_shape=obj.shape,
            target_color=obj.color,
            placement=str(rng.choice(sim.PLACEMENTS)),
            hand=str(rng.choice(sim.HANDS)),
        )
        if instruction_feasible(scene, instruction):
            return instruction
    raise InfeasibleInstruction("no feasible instruction found for scene")


# -- scripted expert ----------------------------------------------------------------


def _wrap(angle: np.ndarray) -> np.ndarray:
    return (angle + np.pi) % (2 * np.pi) - np.pi


class _Controller:
    """Single-arm waypoint controller that simulates as it emits actions."""

    def __init__(self, scene: SceneSpec, arm: int, rng: np.random.Generator,
                 speed: float):
        self.arm = arm
        self.rng = rng
        self.speed = speed
        self.state = sim.initial_state(scene)
        self.actions: list[np.ndarray] = []

    def _emit(self, deltas: np.ndarray, grip: float) -> None:
        act = np.zeros(ACTION_DIM)
        k, idle = self.arm, 1 - self.arm
        act[3 * k:3 * k + 2] = deltas
        act[3 * k + 2] = grip
        act[3 * idle + 2] = self.state.gripper[idle]     # idle arm holds
        act = sim.clip_actions(act)
        self.state = sim.step(self.state, act)
        self.actions.append(act)

    def hold_grip(self) -> float:
        return float(self.state.gripper[self.arm])

    def move_to(self, point, tol: float) -> None:
        point = np.asarray(point, dtype=float)
        for _ in range(MAX_MOVE_STEPS):
            eff = sim.effector_position(self.state, self.arm)
            if float(np.hypot(*(eff - point))) <= tol:
                return
            tgt = np.array(sim.inverse_kinematics(point, self.arm))
            diff = _wrap(tgt - self.state.joints[self.arm])
            lim = A_MAX * self.speed
            self._emit(np.clip(diff, -lim, lim) + self.rng.normal(0.0, 0.002, size=2),
                       self.hold_grip())
        raise ExpertFailure(f"waypoint {point} not reached")

    def hold(self, grip: float, steps: int) -> None:
        for _ in range(steps):
            self._emit(np.zeros(2), grip)


def scripted_expert(scene: SceneSpec, instruction: Instruction, seed: int,
                    speed_range: tuple[float, float] = (0.16, 0.27)) -> np.ndarray:
    """Action sequence whose rollout satisfies the task-success oracle.

    Raises InfeasibleInstruction when the target is absent (or stack/push
    geometry is impossible) and ExpertFailure when control does not converge,
    so callers can retry with a fresh seed.
    """
    if not instruction_feasible(scene, instruction):
        raise InfeasibleInstruction(instruction.text())
    rng = np.random.default_rng(seed)
    target = sim.find_target(scene, instruction)
    arm = sim.HANDS.index(instruction.hand)
    ctl = _Controller(scene, arm, rng, speed=float(rng.uniform(*speed_range)))
    start = ctl.state

    obj_pos = np.array(scene.objects[target].position)
    if instruction.behavior == "stack":
        base = sim.stack_base_index(scene, target, instruction.placement)
        anchor = np.array(scene.objects[base].position)
    else:
        anchor = sim.zone_center(instruction.placement)
    jitter = {"pick_place": 0.015, "push": 0.012, "stack": 0.008}[instruction.behavior]
    goal = anchor + rng.normal(0.0, jitter, size=2)

    if instruction.behavior == "push":
        direction = goal - obj_pos
        direction = direction / max(float(np.hypot(*direction)), 1e-9)
        ctl.move_to(obj_pos - 0.11 * direction, tol=0.03)
    ctl.move_to(obj_pos, tol=0.012)
    ctl.hold(1.0, GRIP_STEPS)
    if ctl.state.attachment[arm] != target:
        raise ExpertFailure("grasp missed")
    if instruction.behavior != "push":
        # carry via a waypoint beside the straight line to the goal
        mid = (sim.effector_position(ctl.state, arm) + goal) / 2.0
        perp = np.array([-(goal - obj_pos)[1], (goal - obj_pos)[0]])
        norm = float(np.hypot(*perp))
        if norm > 1e-9:
            mid = mid + perp / norm * 0.07
        ctl.move_to(mid, tol=0.05)
    ctl.move_to(goal, tol=0.02)
    ctl.hold(0.0, GRIP_STEPS)

    retreat = np.array([sim.ARM_BASES[arm][0], 0.18])
    ctl.move_to(retreat, tol=0.08)
    ctl.hold(ctl.hold_grip(), DWELL_STEPS)

    # sim.step never mutates its input, so the controller's state is the last
    # state of a rollout of its actions, and the oracle reads only the ends
    if not sim.task_success(scene, [start, ctl.state], instruction):
        raise ExpertFailure("rollout does not satisfy the task oracle")
    return np.stack(ctl.actions)


def collect_demos(n: int, seed: int = 0) -> list[Episode]:
    """n verified expert episodes of at least MIN_DEMO_FRAMES frames over
    randomized scenes and instructions."""
    if n < 1:
        raise ValueError("need n >= 1")
    episodes = []
    for i in range(n):
        episode = None
        for attempt in range(DEMO_ATTEMPTS):
            rng = rng_for(seed, "demo", i, attempt)
            scene = sim.sample_scene(rng)
            try:
                instruction = sample_instruction(scene, rng)
                expert_seed = derive_seed(seed, "expert", i, attempt)
                actions = scripted_expert(scene, instruction, expert_seed)
            except (InfeasibleInstruction, ExpertFailure):
                continue
            if len(actions) + 1 < MIN_DEMO_FRAMES:
                continue
            states = sim.rollout(scene, sim.initial_state(scene), actions)
            frames = np.stack([sim.render(scene, s) for s in states])
            episode = Episode(
                episode_id=i,
                embodiment=EMBODIMENT_REAL,
                scene=scene,
                instruction=instruction,
                frames=frames,
                states=np.stack([s.proprio() for s in states]),
                actions=actions,
                provenance={"expert_seed": expert_seed, "attempt": attempt},
            )
            break
        if episode is None:
            raise ExpertFailure(f"could not collect episode {i} in {DEMO_ATTEMPTS} attempts")
        episodes.append(episode)
    return episodes


# -- binary serialization -------------------------------------------------------------

_NP_DTYPE = {records.U8: np.uint8, records.F64: "<f8"}
# the kind `write_episode` gives each record; `read_episode` rejects another
_KIND = {"header": records.JSON, "scene": records.JSON, "instruction": records.JSON,
         "states": records.F64, "actions": records.F64, "frames": records.U8,
         "provenance": records.JSON}


def _canon_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _json_record(name: str, obj) -> tuple:
    payload = _canon_json(obj)
    return name, _KIND[name], (len(payload),), payload


def _array_record(name: str, array: np.ndarray) -> tuple:
    array = np.ascontiguousarray(array, dtype=_NP_DTYPE[_KIND[name]])
    return name, _KIND[name], array.shape, array


def _decode(name: str, kind: int, dims: tuple, payload):
    if kind != _KIND.get(name, kind):
        raise ValueError(f"record {name!r} has kind {kind}, not {_KIND[name]}")
    # JSON records are UTF-8; json.loads on bytes would also take UTF-16/32
    if kind == records.JSON:
        return json.loads(str(payload, "utf-8"))
    return np.frombuffer(payload, dtype=_NP_DTYPE[kind]).reshape(dims)


def write_episode(episode: Episode, path) -> None:
    header = {"episode_id": int(episode.episode_id), "embodiment": episode.embodiment}
    records.write_records(path, MAGIC, VERSION, [
        _json_record("header", header),
        _json_record("scene", episode.scene.to_dict()),
        _json_record("instruction", episode.instruction.to_dict()),
        _array_record("states", episode.states),
        _array_record("actions", episode.actions),
        _array_record("frames", episode.frames),
        _json_record("provenance", episode.provenance),
    ])


def read_episode(path) -> Episode:
    """Read one NTRJ file; truncated or corrupt content raises DatasetError."""
    raw = Path(path).read_bytes()
    try:
        sections = {rec[0]: _decode(*rec) for rec in records.read_records(raw, MAGIC, VERSION, True)}
        header = sections["header"]
        return Episode(
            episode_id=int(header["episode_id"]),
            embodiment=header["embodiment"],
            scene=SceneSpec.from_dict(sections["scene"]),
            instruction=Instruction.from_dict(sections["instruction"]),
            frames=np.array(sections["frames"], dtype=np.uint8),
            states=np.array(sections["states"], dtype=np.float64),
            actions=np.array(sections["actions"], dtype=np.float64),
            provenance=sections["provenance"],
        )
    except records.CORRUPT_ERRORS as exc:
        raise DatasetError(f"{path}: truncated or corrupt ({exc!r})") from exc


def episode_filename(episode_id: int) -> str:
    return f"ep_{episode_id:08d}.ntrj"


def save_dataset(episodes: list[Episode], path, name: str = "dataset",
                 seed: int = 0) -> None:
    """Write episode files first, manifest last (the commit point).

    An existing manifest is removed before any episode is rewritten, and the
    new one is renamed into place whole, so a crash midway leaves a directory
    that `load_dataset` rejects rather than a manifest over mixed episodes.
    Repeated episode ids, whose files would overwrite each other, raise
    ValueError before anything in the directory changes.
    """
    ids = [int(episode.episode_id) for episode in episodes]
    repeated = sorted(eid for eid, n in Counter(ids).items() if n > 1)
    if repeated:
        raise ValueError(f"repeated episode ids {repeated}")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest_path = path / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    for episode, eid in zip(episodes, ids):
        write_episode(episode, path / episode_filename(eid))
    manifest = {"name": name, "seed": int(seed), "count": len(ids),
                "episode_ids": ids}
    tmp = path / "manifest.json.tmp"
    tmp.write_bytes(_canon_json(manifest))
    os.replace(tmp, manifest_path)


def load_dataset(path) -> list[Episode]:
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise DatasetError(f"{path}: missing manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
        ids = manifest["episode_ids"]
        count = manifest["count"]
        ep_paths = [path / episode_filename(eid) for eid in ids]
    except records.CORRUPT_ERRORS as exc:
        raise DatasetError(f"{path}: corrupt manifest.json ({exc!r})") from exc
    if count != len(ids):
        raise DatasetError(f"{path}: manifest count {count} != "
                           f"{len(ids)} listed episodes")
    if len(set(ids)) < len(ids):
        raise DatasetError(f"{path}: manifest lists an episode id twice")
    episodes = []
    for eid, ep_path in zip(ids, ep_paths):
        if not ep_path.exists():
            raise DatasetError(f"{path}: manifest lists missing episode {eid}")
        episode = read_episode(ep_path)
        if episode.episode_id != eid:
            raise DatasetError(f"{path}: {ep_path.name} holds episode {episode.episode_id}")
        episodes.append(episode)
    return episodes
