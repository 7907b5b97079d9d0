"""Seeded inputs for the benchmark workloads, cached on disk.

Two kinds of input are made here, never inside the timed window:

* **Logs.**  The Table 2 paper grid simulated twice (its first repetition
  is the served log, the second supplies the jobs ``live-growth``
  appends, with fresh ids) and a small-grid run before and after some
  nodes were degraded (the ``POST /v1/diff`` pair).  The logs use a fixed
  simulation seed: they stand for one recorded experiment, and
  simulating them again for every ``--seed`` would cost more than a run.
  They are simulated once per source tree and then read from disk.
* **Traffic.**  What a workload sends -- clause signatures, eligible
  explicit pairs, ``warm-mix`` widths and techniques, and its repeat
  schedule -- is drawn from ``--seed`` and cached per seed beside the
  logs, together with why the workload exists.

The server process receives only the log files; requests reach it over
HTTP.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from pathlib import Path
from typing import Any

from repro.cluster.faults import FaultModel
from repro.core.examples import Label, iter_related_pairs, records_for_query
from repro.core.features import infer_schema
from repro.core.pxql import parse_query
from repro.detectors.base import RuleBasedDetector
from repro.core.registry import create_explainer
from repro.exceptions import ExplanationError
from repro.logs.store import ExecutionLog
from repro.service.protocol import PROTOCOL_VERSION
from repro.workloads.grid import build_experiment_log, paper_grid, small_grid

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench"

#: Simulation seeds of the fixed logs.
GRID_SEED = 7
DIFF_SEED = 11
#: The degraded nodes of the "after" run.
DEGRADED = FaultModel(slow_node_probability=0.25, slow_node_factor=0.4)

#: Why each workload exists; also recorded in every input and result file.
WHY = {
    "cold-questions": (
        "distinct clause signatures on the paper-grid log, so every request "
        "misses the session caches and pair search, filtering, derivation "
        "and encoding do the work; one diff per run"
    ),
    "warm-mix": (
        "repeats requests over four warmed clause signatures, a second client "
        "joining for identical requests at once, so the median falls on cache "
        "hits and the tail on new explanations"
    ),
    "live-growth": (
        "appends whole jobs in batches beside questions, so block maintenance "
        "and cache invalidation run and each question rebuilds its matrix"
    ),
    "spill-shard": (
        "cold task questions over chunked record blocks that spill to disk, "
        "with pair filtering sharded over two worker processes"
    ),
}

#: Question templates: fixed despite atoms plus two atoms the fixed ones
#: already imply on these logs (features constant in the log, or job-level
#: features every task of one job shares), in either order.  Each draw is
#: a new clause signature to the session caches, yet all draws of a
#: template relate the same pairs and evaluate as many atoms, so a template
#: costs the same whatever the seed picks.  ``LOOSE`` runs on the
#: small-grid log: none of its atoms blocks, so its ~936k ordered candidate
#: pairs exceed the 500k cap of the pair-of-interest search.
TEMPLATES = {
    "JOBS": ("pig_script_isSame = T AND numinstances_isSame = T AND ", (
        "instance_type_isSame = T", "iosortmb_isSame = T",
        "map_slots_per_instance_isSame = T", "reduce_slots_per_instance_isSame = T",
    )),
    "TASKS": ("job_id_isSame = T AND task_type_isSame = T AND inputsize_compare = SIM "
              "AND hostname_isSame = T AND ", (
        "pig_script_isSame = T", "numinstances_isSame = T", "blocksize_isSame = T",
        "iosortfactor_isSame = T", "num_map_tasks_isSame = T", "attempts_isSame = T",
    )),
    "LOOSE": ("", ("inputsize_compare = SIM", "attempts_isSame = T")),
}
#: Detector techniques that may answer each entity kind.
DETECTORS = {
    "JOBS": ("detect-misconfig", "detect-underuse"),
    "TASKS": ("detect-skew", "detect-straggler"),
}

#: The set-up questions: one job and one task question with signatures no
#: timed request uses, so block encoding and technique creation land in
#: set-up without warming anything the workload measures.
WARM_JOB = "DESPITE pig_script_isSame = T AND dataset_name_isSame = T"
WARM_TASK = "DESPITE job_id_isSame = T AND tracker_name_isSame = T"

#: Jobs appended per ``live-growth`` batch (whole jobs with their tasks).
BATCH_JOBS = 12


def source_hash() -> str:
    """A digest of the program's and the benchmark's sources; cached inputs
    and oracle answers are keyed by it."""
    digest = hashlib.sha256()
    paths = [*(ROOT / "src" / "repro").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def cache_dir() -> Path:
    return CACHE / source_hash()


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + f".{os.getpid()}.tmp")
    tmp.write_text(text)
    tmp.replace(path)


# ---------------------------------------------------------------------- #
# logs
# ---------------------------------------------------------------------- #

LOG_NAMES = ("paper", "growth", "before", "after")


def log_paths() -> dict[str, Path]:
    """The fixed logs on disk, simulated on first use."""
    directory = cache_dir() / "logs"
    paths = {name: directory / f"{name}.jsonl" for name in LOG_NAMES}
    if all(path.exists() for path in paths.values()):
        return paths
    directory.mkdir(parents=True, exist_ok=True)
    grid = build_experiment_log(paper_grid(), seed=GRID_SEED, repetitions=2, workers=2)
    first = {j.job_id for j in grid.jobs if j.features["grid_repetition"] == 0}
    parts = {"paper": ExecutionLog(), "growth": ExecutionLog()}
    for name, keep in (("paper", True), ("growth", False)):
        parts[name].extend(
            jobs=[j for j in grid.jobs if (j.job_id in first) == keep],
            tasks=[t for t in grid.tasks if (t.job_id in first) == keep],
        )
    parts["before"] = build_experiment_log(small_grid(), seed=DIFF_SEED)
    parts["after"] = build_experiment_log(
        small_grid(), seed=DIFF_SEED, fault_model=DEGRADED
    )
    for name, log in parts.items():
        tmp = paths[name].with_suffix(f".{os.getpid()}.jsonl")
        log.save(tmp)
        tmp.replace(paths[name])
    return paths


# ---------------------------------------------------------------------- #
# requests
# ---------------------------------------------------------------------- #


def pxql(entity: str, despite: str, observed: str, pair=None) -> str:
    """A PXQL question about ``?`` pairs or an explicit pair."""
    head = f"FOR {entity} ?, ?" if pair is None else f"FOR {entity} '{pair[0]}', '{pair[1]}'"
    return (
        f"{head} {despite} OBSERVED duration_compare = {observed} "
        "EXPECTED duration_compare = SIM"
    )


def query_step(log: str, text: str, width: int,
               technique: str = "perfxplain") -> dict[str, Any]:
    body = {"log": log, "query": text, "width": width, "technique": technique,
            "protocol_version": PROTOCOL_VERSION}
    return {"kind": "query", "path": "/v1/query", "body": body, "state": 0}


def diff_step(width: int) -> dict[str, Any]:
    body = {"before": "before", "after": "after", "width": width,
            "technique": "perfxplain", "protocol_version": PROTOCOL_VERSION}
    return {"kind": "diff", "path": "/v1/diff", "body": body, "state": 0}


class PairFinder:
    """Eligible explicit pairs: related pairs that performed as observed.

    What it finds is kept on disk beside the logs, so that a new seed
    draws its traffic without searching the logs again.
    """

    def __init__(self, paths: dict[str, Path]) -> None:
        self._paths = paths
        self._logs: dict[str, ExecutionLog] = {}
        self._schemas: dict[tuple, Any] = {}
        self._memo_path = cache_dir() / "pairs.json"
        self._memo: dict[str, Any] = (
            json.loads(self._memo_path.read_text()) if self._memo_path.exists() else {}
        )
        self._unsaved = False

    def log(self, name: str) -> ExecutionLog:
        """A log, read from disk on first use."""
        if name not in self._logs:
            self._logs[name] = ExecutionLog.load(self._paths[name])
        return self._logs[name]

    def job_ids(self, log: str) -> list[str]:
        """A log's job ids, in log order."""
        return self._memoised(["jobs", log], lambda: [j.job_id for j in self.log(log).jobs])

    def schema(self, log: str, entity: str, query: Any) -> Any:
        key = (log, entity)
        if key not in self._schemas:
            self._schemas[key] = infer_schema(records_for_query(self.log(log), query))
        return self._schemas[key]

    def _memoised(self, key: list, compute: Any) -> Any:
        text = json.dumps(key)
        if text not in self._memo:
            self._memo[text] = compute()
            self._unsaved = True
        return self._memo[text]

    def save(self) -> None:
        if self._unsaved:
            _write_atomic(self._memo_path, json.dumps(self._memo))
            self._unsaved = False

    def pairs(self, log: str, entity: str, despite: str, observed: str,
              limit: int = 48) -> list[tuple[str, str]]:
        """Up to ``limit`` observed pairs; empty unless expected pairs exist."""
        found = self._memoised(
            ["pairs", log, entity, despite, observed, limit],
            lambda: self._find_pairs(log, entity, despite, observed, limit),
        )
        return [tuple(pair) for pair in found]

    def _find_pairs(self, log: str, entity: str, despite: str, observed: str,
                    limit: int) -> list[tuple[str, str]]:
        query = parse_query(pxql(entity, despite, observed))
        found: list[tuple[str, str]] = []
        has_expected = False
        pairs = iter_related_pairs(
            self.log(log), query, self.schema(log, entity, query),
            max_candidate_pairs=500_000, rng=random.Random(0),
        )
        for first, second, label in pairs:
            if label is Label.OBSERVED:
                found.append((first.entity_id, second.entity_id))
            else:
                has_expected = True
            if len(found) >= limit and has_expected:
                break
        pairs.close()
        return found if has_expected else []

    def detector_answers(self, log: str, entity: str, text: str,
                         technique: str, width: int) -> bool:
        """Whether a detector fires on the question's pair.

        With an empty example list a detector raises exactly when none of
        its rules fires, without building any training examples.
        """
        return self._memoised(
            ["detector", log, entity, text, technique, width],
            lambda: self._detector_fires(log, entity, text, technique, width),
        )

    def _detector_fires(self, log: str, entity: str, text: str,
                        technique: str, width: int) -> bool:
        detector = create_explainer(technique)
        assert isinstance(detector, RuleBasedDetector)
        query = parse_query(text)
        try:
            detector.explain(self.log(log), query, self.schema(log, entity, query),
                             width=width, examples=[])
        except ExplanationError:
            return False
        return True


def _canonical(template: str) -> str:
    """The despite clause a template's eligible pairs are found with: every
    signature of a template relates the same pairs, so one search serves
    all seeds."""
    base, implied = TEMPLATES[template]
    return f"DESPITE {base}{implied[0]} AND {implied[1]}"


def _signatures(rng: random.Random, template: str) -> list[tuple[str, str]]:
    """Every (despite, observed) signature of a template, in seeded order."""
    base, implied = TEMPLATES[template]
    combos = [
        (f"DESPITE {base}{first} AND {second}", observed)
        for first, second in itertools.permutations(implied, 2)
        for observed in ("GT", "LT")
    ]
    rng.shuffle(combos)
    return combos


#: Width of the cold questions: the explainer's default, so every run
#: grows explanations of one size.
COLD_WIDTH = 3


class _Drawer:
    """Draws fresh, answerable questions of each template without repeats."""

    def __init__(self, finder: PairFinder, rng: random.Random) -> None:
        self.finder = finder
        self.rng = rng
        self._pools = {kind: iter(_signatures(rng, kind)) for kind in TEMPLATES}
        self._pairs: dict[tuple, list] = {}

    def question(self, template: str, log: str = "paper") -> dict[str, Any]:
        """A query step of a fresh signature; ``template`` is ``J?``, ``Je``,
        ``T?``, ``Te`` or ``L?`` (``?`` pairs or an explicit eligible pair)."""
        entity = "JOBS" if template[0] == "J" else "TASKS"
        kind = "LOOSE" if template[0] == "L" else entity
        despite, observed = next(self._pools[kind])
        key = (kind, observed)
        if key not in self._pairs:
            self._pairs[key] = self.finder.pairs(log, entity, _canonical(kind), observed)
            if not self._pairs[key]:
                raise RuntimeError(f"{template} questions have no eligible pairs")
        pair = None if template.endswith("?") else self.rng.choice(self._pairs[key])
        return query_step(log, pxql(entity, despite, observed, pair), COLD_WIDTH)


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #

#: One cold-questions cycle (``D`` is the diff, same width every time).
#: The diff and the loose question cost several explicit task questions
#: each, so they come early, where the window reaches them even on a slow
#: machine.
#: Explicit task questions, the cheapest kind, are more than half of every
#: prefix of three or more questions, so the median question of a run is
#: one of them however many requests the window holds.
COLD_CYCLE = ("Te", "Te", "D", "Te", "L?", "J?", "Te", "Te", "J?", "T?")


def _cold_questions(rng: random.Random, finder: PairFinder) -> dict[str, Any]:
    drawer = _Drawer(finder, rng)
    steps = [
        diff_step(width=2) if template == "D"
        else drawer.question(template, "before" if template == "L?" else "paper")
        for template in COLD_CYCLE * 3
    ]
    return {"steps": steps}


#: Pairs per warm-mix signature.  With at most three techniques and widths
#: 1-5, the distinct requests (at most 720) stay under the 1024-entry
#: session caches.
WARM_PAIRS = 12


def _warm_mix(rng: random.Random, finder: PairFinder) -> dict[str, Any]:
    # The same four signatures (one observed direction) for every seed, so
    # every run asks the same new requests in the same order and a new
    # seed's oracle answers are already on disk; the seed draws the repeat
    # schedule.
    pools = {
        entity: iter([sig for sig in _signatures(random.Random(0), entity) if sig[1] == "GT"])
        for entity in DETECTORS
    }
    rounds: list[list[dict[str, Any]]] = [[] for _ in range(WARM_PAIRS)]
    for entity in ("JOBS", "TASKS", "JOBS", "TASKS"):
        despite, observed = next(pools[entity])
        pairs = finder.pairs("paper", entity, _canonical(entity), observed)
        # Questions go to perfxplain, simbutdiff and, where one fires on
        # twelve of the eligible pairs, a detector, over those pairs.  (The
        # task detectors never fire on these same-host task pairs.)
        techniques = ["perfxplain", "simbutdiff"]
        for detector in DETECTORS[entity]:
            fired = [
                pair for pair in pairs
                if finder.detector_answers(
                    "paper", entity, pxql(entity, despite, observed, pair), detector, 3)
            ]
            if len(fired) >= WARM_PAIRS:
                techniques.append(detector)
                pairs = fired
                break
        # The same pairs for every seed (the first eligible ones), so the
        # cost of a new explanation does not hinge on the draw.
        for index, pair in enumerate(pairs[:WARM_PAIRS]):
            text = pxql(entity, despite, observed, pair)
            for technique in techniques:
                for width in range(1, 6):
                    step = query_step("paper", text, width, technique)
                    step["signature"] = f"{entity} {despite} {observed}"
                    rounds[index].append(step)
    # Each round holds every signature, technique and width once, width by
    # width and each signature's techniques in turn, so any stretch of new
    # requests is the same even mix for every seed.  Eight requests of the
    # first round, with at least one per signature to warm its matrix, are
    # asked before the window opens.
    for requests in rounds:
        requests.sort(key=lambda step: step["body"]["width"])
    first = rounds[0]
    warm = {step["signature"]: index for index, step in reversed(list(enumerate(first)))}
    known = sorted(set(range(8)) | set(warm.values()))
    issued = [first[i] for i in known]
    fresh = iter([step for i, step in enumerate(first) if i not in known]
                 + [step for requests in rounds[1:] for step in requests])
    # Every fifth step asks a new request, a new explanation over a warm
    # matrix; the others repeat an earlier request (a cache hit).  Every
    # sixteenth step is a new request that a second client sends at the
    # same moment.  About three requests in four repeat one, so the median
    # falls well inside the hits.  The distinct requests stay under the
    # 1024-entry caches.
    steps = []
    for index in range(6000):
        both = index % 16 == 15
        if both or index % 5 == 4:
            request = next(fresh, None)
            if request is None:
                break
            issued.append(request)
        else:
            request = rng.choice(issued)
        steps.append({**request, "both": both})
    return {"steps": steps, "prewarm": issued[:len(known)]}


#: The live-growth question rotation (one question after each batch):
#: mostly explicit task questions, so the median stays on them.
GROWTH_ROTATION = ("Te", "J?", "Te", "Te")


def _live_growth(rng: random.Random, finder: PairFinder) -> dict[str, Any]:
    drawer = _Drawer(finder, rng)
    rotation = [drawer.question(template) for template in GROWTH_ROTATION]
    # The second repetition in grid order, so every seed grows the log the
    # same way; the seed draws the questions.
    growth = finder.job_ids("growth")
    steps = []
    for batch in range(len(growth) // BATCH_JOBS):
        jobs = growth[batch * BATCH_JOBS:(batch + 1) * BATCH_JOBS]
        steps.append({"kind": "append", "path": "/v1/logs/paper/append",
                      "jobs": jobs, "state": batch + 1})
        steps.append({**rotation[batch % len(rotation)], "state": batch + 1})
    return {"steps": steps}


def _spill_shard(rng: random.Random, finder: PairFinder) -> dict[str, Any]:
    drawer = _Drawer(finder, rng)
    return {"steps": [drawer.question("Te") for _ in range(30)]}


TRAFFIC = {
    "cold-questions": _cold_questions,
    "warm-mix": _warm_mix,
    "live-growth": _live_growth,
    "spill-shard": _spill_shard,
}


def workload_inputs(workload: str, seed: int) -> dict[str, Any]:
    """The seeded traffic of one workload (generated once per seed)."""
    path = cache_dir() / "inputs" / f"{workload}-seed{seed}.json"
    if path.exists():
        return json.loads(path.read_text())
    paths = log_paths()
    finder = PairFinder(paths)
    rng = random.Random(f"{workload}:{seed}")
    inputs = TRAFFIC[workload](rng, finder)
    inputs.update(
        workload=workload,
        seed=seed,
        why=WHY[workload],
        logs={name: str(p.relative_to(ROOT)) for name, p in paths.items()},
        warm=[
            query_step("paper", _warm_question(finder, "JOBS", WARM_JOB), 2),
            query_step("paper", _warm_question(finder, "TASKS", WARM_TASK), 2),
        ],
    )
    finder.save()
    _write_atomic(path, json.dumps(inputs))
    return inputs


def _warm_question(finder: PairFinder, entity: str, despite: str) -> str:
    pair = finder.pairs("paper", entity, despite, "GT", limit=1)[0]
    return pxql(entity, despite, "GT", pair)
