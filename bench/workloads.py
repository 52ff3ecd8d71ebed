"""The benchmark's workloads over the `trajcurate` package.

Every workload is a closed loop on one Python thread: item i+1 starts only
after item i has finished and been checked. Inputs come from the workload
seed alone. Each workload has three phases:

* set-up, run once before the timed loop and repeated between its items,
  so `setup_s` is a median and the repeats can be compared byte for byte.
  Spread over the run, the repeats meet the same mix of host speed as the
  items do: on a shared host that switches between speeds every few
  seconds, repeats run back to back measured whichever speed they met;
* the timed loop, which runs items until `seconds` have passed and always
  completes at least `min_items` of them. The outputs of those first items
  are hashed, so two runs with the same seed, traced or not, must agree;
* report-only figures computed from the recorded outputs afterwards.

End-to-end metrics: throughput and latency are given per video frame
(`frames_per_s`, the successful items' frames over their summed work time;
`frame_p50_ms`, `frame_tail_ms`), since `curate` candidates run from about 30
to 170 frames and the cost of every stage grows with length; per item, the
figures mostly measured the length mix a run happened to reach.

Workload code calls the package through module attributes (`sim.render`,
not a bound name), so the tracing wrappers installed by `spans` see it.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from trajcurate import dataset, encoder, flow, idm, optim, probe, sim, synthgen
from trajcurate.seeding import derive_seed, rng_for

from spans import Tracer, layer_metrics

# Between two set-ups, items run SETUP_SPACING times as long as the last
# set-up took: about a fifth of a run is set-up, three to twenty-five repeats.
SETUP_SPACING = 4

# One training pass: the `train` workload's item and part of `curate` set-up.
N_DEMOS = 4
DEMO_FRAMES = (109, 124)  # 28-31 frames at stride 4: exactly 4 clip windows
ENCODER_STEPS = 2
ENCODER_BATCH_CLIPS = 4
PROBE_EPOCHS = 5
IDM_STEPS = 20
IDM_BATCH = 16
IDM_LR = 1e-3
LOSS_TAIL = 10          # idm.loss_end averages this many final losses

N_CANDIDATES = 4        # Best-of-N group size in `curate`
# Ninth-quantile edges of the scripted expert's rollout length (frames) at
# the middle of its speed range, over 1800 random scenes and instructions.
# `curate` cycles through the nine bands in an order whose every prefix mixes
# short and long videos evenly, so how many groups a run reaches barely
# shifts its length mix.
REFERENCE_SPEED = (0.215, 0.215)
LENGTH_EDGES = (0, 62, 71, 78, 87, 96, 104, 113, 124, 10**6)
BAND_ORDER = (0, 8, 4, 2, 6, 1, 7, 3, 5)
DATAGEN_FILES = 4       # episode files reused round-robin by `datagen`
DRAW_ATTEMPTS = 50      # scene draws before an input is given up

REPORT_METRICS = ("idm.label_mse", "idm.loss_end", "probe.val_bce",
                  "probe.score_auroc", "curate.bestofn_clean_rate")


def _sha(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.digest()


def _all_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


# -- training shared by `train` and `curate` set-up ---------------------------------


@dataclass
class TrainedModels:
    encoder: encoder.EncoderModel
    probe: probe.ProbeModel
    idm: idm.IdmModel
    idm_losses: list[float]
    probe_report: probe.ProbeTrainReport

    def digest(self) -> bytes:
        arrays = []
        for store in (self.encoder.store, self.probe.store, self.idm.store):
            arrays += [store.params[k].data for k in sorted(store.params)]
        return _sha(*arrays, np.array(self.idm_losses),
                    np.array(self.probe_report.val_bce))


def train_models(demos: list[dataset.Episode], seed: int) -> TrainedModels:
    enc = encoder.pretrain_encoder(demos, encoder.EncoderTrainConfig(
        steps=ENCODER_STEPS, batch_clips=ENCODER_BATCH_CLIPS,
        seed=derive_seed(seed, "encoder")))
    pairs = probe.build_pairs(demos, seed=derive_seed(seed, "pairs"))
    prb, report = probe.train_probe(pairs, enc, probe.ProbeTrainConfig(
        max_epochs=PROBE_EPOCHS, seed=derive_seed(seed, "probe")))
    schedule = optim.LrSchedule(base_lr=IDM_LR, total_steps=IDM_STEPS,
                                stable_steps=IDM_STEPS * 3 // 4)
    model, losses = idm.train_idm(demos, flow.TrainConfig(
        steps=IDM_STEPS, batch_size=IDM_BATCH, schedule=schedule,
        seed=derive_seed(seed, "idm")))
    return TrainedModels(enc, prb, model, losses, report)


def draw_demo_inputs(seed: int) -> list[tuple[sim.SceneSpec, sim.Instruction, int]]:
    """(scene, instruction, expert seed) of N_DEMOS demos whose expert
    rollout has DEMO_FRAMES frames, so every demo set has the same size:
    4 clip windows each, whatever the seed. This is input generation, done
    once per run outside set-up timing: how many draws the length band
    rejects varies three-fold between seeds."""
    lo, hi = DEMO_FRAMES
    drawn = []
    for k in range(DRAW_ATTEMPTS * N_DEMOS):
        if len(drawn) == N_DEMOS:
            return drawn
        rng = rng_for(seed, "demo", k)
        scene = sim.sample_scene(rng)
        expert_seed = derive_seed(seed, "expert", k)
        try:
            instruction = dataset.sample_instruction(scene, rng)
            actions = dataset.scripted_expert(scene, instruction, expert_seed)
        except (dataset.InfeasibleInstruction, dataset.ExpertFailure):
            continue
        if lo <= len(actions) + 1 <= hi:
            drawn.append((scene, instruction, expert_seed))
    raise RuntimeError(f"fewer than {N_DEMOS} demos of {lo}-{hi} frames")


def build_demos(inputs: list[tuple[sim.SceneSpec, sim.Instruction, int]]
                ) -> list[dataset.Episode]:
    """Expert, rollout and render of each drawn demo, as `collect_demos`
    builds an episode."""
    demos = []
    for scene, instruction, expert_seed in inputs:
        actions = dataset.scripted_expert(scene, instruction, expert_seed)
        states = sim.rollout(scene, sim.initial_state(scene), actions)
        demos.append(dataset.Episode(
            episode_id=len(demos), embodiment=dataset.EMBODIMENT_REAL, scene=scene,
            instruction=instruction,
            frames=np.stack([sim.render(scene, s) for s in states]),
            states=np.stack([s.proprio() for s in states]), actions=actions,
            provenance={"expert_seed": expert_seed}))
    return demos


# -- workloads -----------------------------------------------------------------------


class Workload:
    name = ""
    min_items = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir / self.name
        self.problems: list[str] = []

    def setup(self) -> bytes:
        """Build what the timed items need; returns a digest of its outputs.
        It runs again between items and must leave them the same state."""
        raise NotImplementedError

    def inputs(self, i: int):
        """Item i's generated inputs, drawn outside the item's timing."""
        return None

    def work(self, i: int, inputs):
        raise NotImplementedError

    def check(self, i: int, out) -> tuple[bool, bytes]:
        """Validate item i's output; returns (ok, bytes that enter the digest)."""
        raise NotImplementedError

    def frames(self, out) -> int:
        """Video frames item output `out` covers, the unit latency is given per."""
        raise NotImplementedError

    def report(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


class Curate(Workload):
    """Best-of-N verification: generate, IDM-label and probe-score candidates."""
    name = "curate"
    min_items = N_CANDIDATES

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.mixture = synthgen.CorruptionMixture()
        self.groups: dict[int, tuple[sim.SceneSpec, sim.Instruction]] = {}
        # item -> (group, corruption kind, score, squared label error, entries)
        self.records: dict[int, tuple[int, str, float, float, int]] = {}
        self.demo_inputs = draw_demo_inputs(seed)
        self.encoder = self.probe = self.idm = None

    def setup(self) -> bytes:
        # A repeated set-up starts from what a first one sees: the previous
        # models released and the cyclic collector, which frees autodiff
        # graphs during training, empty. Holding them adds a seed-dependent
        # 5-100 MB to peak memory with each repeat.
        self.encoder = self.probe = self.idm = None
        gc.collect()
        demos = build_demos(self.demo_inputs)
        models = train_models(demos, derive_seed(self.seed, "train"))
        shutil.rmtree(self.work_dir, ignore_errors=True)
        paths = {k: self.work_dir / f"{k}.tckp" for k in ("encoder", "probe", "idm")}
        models.encoder.save(paths["encoder"])
        models.probe.save(paths["probe"])
        models.idm.save(paths["idm"])
        self.encoder = encoder.EncoderModel.load(paths["encoder"])
        self.probe = probe.ProbeModel.load(paths["probe"])
        self.idm = idm.IdmModel.load(paths["idm"])
        for kind, before, after in (("encoder", models.encoder, self.encoder),
                                    ("probe", models.probe, self.probe),
                                    ("idm", models.idm, self.idm)):
            same = all(np.array_equal(t.data, after.store.params[k].data)
                       for k, t in before.store.params.items())
            if not same:
                self.problems.append(f"{kind} checkpoint does not round-trip")
        h = hashlib.sha256()
        for k in sorted(paths):
            h.update(paths[k].read_bytes())
        return h.digest()

    def inputs(self, i):
        """Group g's scene and instruction, drawn until the expert's rollout
        length falls in the group's length band."""
        g = i // N_CANDIDATES
        if g not in self.groups:
            band = BAND_ORDER[g % len(BAND_ORDER)]
            lo, hi = LENGTH_EDGES[band], LENGTH_EDGES[band + 1]
            for attempt in range(DRAW_ATTEMPTS * len(LENGTH_EDGES)):
                rng = rng_for(self.seed, "curate-group", g, attempt)
                scene = sim.sample_scene(rng)
                try:
                    instruction = dataset.sample_instruction(scene, rng)
                    actions = dataset.scripted_expert(
                        scene, instruction, derive_seed(self.seed, "curate-reference", g, attempt),
                        speed_range=REFERENCE_SPEED)
                except (dataset.InfeasibleInstruction, dataset.ExpertFailure):
                    continue
                if lo <= len(actions) + 1 < hi:
                    self.groups[g] = (scene, instruction)
                    break
            else:
                raise RuntimeError(f"no input in length band {band} for group {g}")
        return self.groups[g]

    def work(self, i, inputs):
        scene, instruction = inputs
        sample = synthgen.sample_candidates(
            scene, instruction, 1, self.mixture,
            derive_seed(self.seed, "curate-candidate", i))[0]
        sample.idm_actions = idm.label_video(sample.video, self.idm)
        sample.alignment_score = probe.score_sample(sample, self.encoder, self.probe)
        return sample

    def check(self, i, sample):
        labels, score = sample.idm_actions, sample.alignment_score
        ok = (labels.shape == (len(sample.video) - 1, idm.ACTION_DIM)
              and _all_finite(labels) and 0.0 <= score <= 1.0)
        sq, entries = 0.0, 0
        if sample.hidden_actions is not None:
            sq = float(np.sum((labels - sample.hidden_actions) ** 2))
            entries = labels.size
        self.records[i] = (i // N_CANDIDATES, sample.gt_corruption.kind, score, sq, entries)
        return ok, _sha(labels, np.array([score]))

    def frames(self, sample):
        return len(sample.video)

    def report(self):
        """Report-only joins with the hidden corruption label; the timed
        items never read it."""
        recs = [self.records[i] for i in sorted(self.records)]
        entries = sum(r[4] for r in recs)
        groups: dict[int, list[tuple[str, float]]] = {}
        for g, kind, score, _, _ in recs:
            groups.setdefault(g, []).append((kind, score))
        full = [c for c in groups.values() if len(c) == N_CANDIDATES]
        picks = [max(c, key=lambda ks: ks[1])[0] for c in full]
        return {
            "idm.label_mse": sum(r[3] for r in recs) / entries if entries else 0.0,
            "probe.score_auroc": auroc([r[2] for r in recs if r[1] == "none"],
                                       [r[2] for r in recs if r[1] != "none"]),
            "curate.bestofn_clean_rate": (sum(k == "none" for k in picks) / len(picks)
                                          if picks else 0.0),
        }


class Train(Workload):
    """One item is a full training pass of encoder, probe and IDM."""
    name = "train"
    min_items = 1

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.demo_inputs = draw_demo_inputs(seed)
        self.first: bytes | None = None
        self.last: TrainedModels | None = None

    def setup(self) -> bytes:
        self.demos = build_demos(self.demo_inputs)
        return _sha(*[a for ep in self.demos for a in (ep.frames, ep.actions)])

    def work(self, i, inputs):
        return train_models(self.demos, derive_seed(self.seed, "train"))

    def check(self, i, models):
        digest = models.digest()
        self.first = self.first or digest
        self.last = models
        ok = (_all_finite(models.idm_losses) and _all_finite(models.probe_report.val_bce)
              and digest == self.first)
        if digest != self.first:
            self.problems.append(f"training pass {i} differs from pass 0")
        return ok, digest

    def frames(self, models):
        return sum(len(ep.frames) for ep in self.demos)

    def report(self):
        if self.last is None:
            return {}
        return {"idm.loss_end": float(np.mean(self.last.idm_losses[-LOSS_TAIL:])),
                "probe.val_bce": float(min(self.last.probe_report.val_bce))}


class Datagen(Workload):
    """Scripted expert, render, restyle and an NTRJ write/read round trip."""
    name = "datagen"
    min_items = 16

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.warmup_inputs = draw_demo_inputs(derive_seed(seed, "datagen-warmup"))

    def setup(self) -> bytes:
        """A round trip of each warm-up demo, which fills lazy caches. The
        demos are drawn in a length band like the other workloads' set-up
        demos, so set-up time does not follow the length of the seed's
        episodes, which runs from 48 to 137 frames."""
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        h = hashlib.sha256()
        for k, episode in enumerate(build_demos(self.warmup_inputs)):
            i = -1 - k
            ok, digest = self.check(i, self._round_trip(
                i, episode, rng_for(self.seed, "datagen-warmup", k)))
            if not ok:
                self.problems.append(f"warm-up episode {k} failed its round trip")
            h.update(digest)
        return h.digest()

    def work(self, i, inputs):
        for attempt in range(DRAW_ATTEMPTS):
            rng = rng_for(self.seed, "datagen", i, attempt)
            scene = sim.sample_scene(rng)
            try:
                instruction = dataset.sample_instruction(scene, rng)
                actions = dataset.scripted_expert(
                    scene, instruction, derive_seed(self.seed, "datagen-expert", i, attempt))
            except (dataset.InfeasibleInstruction, dataset.ExpertFailure):
                continue
            break
        else:
            raise RuntimeError(f"no expert episode in {DRAW_ATTEMPTS} attempts")
        states = sim.rollout(scene, sim.initial_state(scene), actions)
        episode = dataset.Episode(
            episode_id=i, embodiment=dataset.EMBODIMENT_REAL, scene=scene,
            instruction=instruction,
            frames=np.stack([sim.render(scene, s) for s in states]),
            states=np.stack([s.proprio() for s in states]), actions=actions,
            provenance={"attempt": attempt})
        return self._round_trip(i, episode, rng)

    def _round_trip(self, i, episode, rng):
        restyled = synthgen.restyle_video(
            episode, synthgen.random_palette_map(episode.scene, rng),
            float(rng.uniform(0.7, 1.3)))
        path = self.work_dir / dataset.episode_filename(i % DATAGEN_FILES)
        dataset.write_episode(restyled, path)
        return restyled, dataset.read_episode(path), path

    def check(self, i, out):
        written, back, path = out
        return dataset.episodes_equal(written, back), hashlib.sha256(path.read_bytes()).digest()

    def frames(self, out):
        return len(out[0].frames)


WORKLOADS = {w.name: w for w in (Curate, Train, Datagen)}


# -- statistics ------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[int, float]:
    """(p, value): the highest whole percentile at or above the median that
    leaves at least ten samples beyond it (nearest rank), or the maximum,
    labelled p100, when fewer than 20 samples leave none."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 100, xs[-1]


def auroc(positives: list[float], negatives: list[float]) -> float:
    """Probability that a positive outscores a negative (ties count half);
    0.5 when either class is empty."""
    if not positives or not negatives:
        return 0.5
    wins = sum((p > n) + 0.5 * (p == n) for p in positives for n in negatives)
    return wins / (len(positives) * len(negatives))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- run loop ----------------------------------------------------------------------------


@dataclass
class LoopResult:
    item_s: list[float] = field(default_factory=list)
    frame_ms: list[float] = field(default_factory=list)   # successful items only
    frames: int = 0             # video frames of the successful items
    frames_s: float = 0.0       # and their summed work time
    failed: int = 0
    digest: bytes = b""


def _loop(wl: Workload, seconds: float, tracer: Tracer | None,
          set_up: Callable[[], float] | None = None) -> LoopResult:
    """Closed loop: runs item 0, 1, ... until `seconds` have passed, never
    fewer than `wl.min_items`. Only the item's work is timed. `set_up`, if
    given, times one set-up; it runs between items as SETUP_SPACING says,
    and the deadline moves by its duration."""
    res = LoopResult()
    h = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    next_setup = math.inf
    if set_up is not None:
        took = set_up()
        deadline += took
        next_setup = time.perf_counter() + SETUP_SPACING * took
    i = 0
    while i < wl.min_items or time.perf_counter() < deadline:
        if time.perf_counter() >= next_setup:
            took = set_up()
            deadline += took
            next_setup = time.perf_counter() + SETUP_SPACING * took
        inputs = wl.inputs(i)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.work(i, inputs)
            else:
                with tracer.span("item"):
                    out = wl.work(i, inputs)
        except Exception:
            res.item_s.append(time.perf_counter() - t0)
            res.failed += 1
            wl.problems.append(f"item {i}: {traceback.format_exc(limit=-1).strip()}")
        else:
            res.item_s.append(time.perf_counter() - t0)
            frames = wl.frames(out)
            res.frame_ms.append(res.item_s[-1] * 1e3 / frames)
            res.frames += frames
            res.frames_s += res.item_s[-1]
            ok, blob = wl.check(i, out)
            res.failed += not ok
            if i < wl.min_items:
                h.update(blob)
            del out
        # Collect each item's cyclic garbage (autodiff graphs) here, untimed,
        # so peak memory does not grow with the number of items run.
        gc.collect()
        i += 1
    res.digest = h.digest()
    return res


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    tail_percentile: int
    item_ms: list[float]
    setup_s: list[float]
    digest: str
    problems: list[str]
    spans: list = field(default_factory=list)


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> RunResult:
    """One benchmark run. Untraced, the metrics are the end-to-end ones;
    traced, they are the per-layer ones and the item loop runs twice: first
    untraced over `min_items` items, for the overhead and digest comparison,
    then traced for `seconds`."""
    wl = WORKLOADS[name](seed, work_dir)
    tracer = Tracer() if trace else None
    try:
        setup_s: list[float] = []
        setup_digests: list[bytes] = []

        def set_up() -> float:
            t0 = time.perf_counter()
            if tracer is None:
                setup_digests.append(wl.setup())
            else:
                with tracer.span("setup"):
                    setup_digests.append(wl.setup())
            setup_s.append(time.perf_counter() - t0)
            gc.collect()
            return setup_s[-1]

        if tracer is None:
            loop = _loop(wl, seconds, None, set_up)
        else:
            with tracer.installed():
                set_up()
            untraced = _loop(wl, 0.0, None)
            with tracer.installed():
                loop = _loop(wl, seconds, tracer, set_up)
            if loop.digest != untraced.digest:
                wl.problems.append("traced outputs differ from untraced outputs")
        report = wl.report()
        if len(set(setup_digests)) != 1:
            wl.problems.append("repeated set-ups produced different outputs")
    finally:
        wl.close()

    n = len(loop.item_s)
    p, tail_ms = tail(loop.frame_ms)
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "frames_per_s": loop.frames / loop.frames_s,
            "frame_p50_ms": statistics.median(loop.frame_ms),
            "frame_tail_ms": tail_ms,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        k = wl.min_items
        metrics = layer_metrics(tracer.spans)
        metrics.update({key: float(report.get(key, 0.0)) for key in REPORT_METRICS})
        metrics["trace_overhead_frac"] = (sum(loop.item_s[:k]) / sum(untraced.item_s)) - 1.0
    return RunResult(
        workload=name, seed=seed, trace=trace, attempted=n, failed=loop.failed,
        metrics=metrics, tail_percentile=p, item_ms=[t * 1e3 for t in loop.item_s],
        setup_s=setup_s,
        digest=hashlib.sha256(setup_digests[0] + loop.digest).hexdigest(),
        problems=wl.problems, spans=tracer.spans if tracer else [])

