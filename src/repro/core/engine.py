"""The E-AFE engine (Figure 5) and its configurable training loop.

One engine implements the whole family of RL-based AFE methods the
paper compares, differing only in three switches:

=====================  ==========  ==========  ================
method                 filter      two-stage   credit assignment
=====================  ==========  ==========  ================
E-AFE (+hash variants) FPE         yes         per-step gains
E-AFE_D                random      yes         per-step gains
E-AFE_R                FPE         no          epoch-final only
NFS (baselines.nfs)    keep-all    no          epoch-final only
=====================  ==========  ==========  ================

The loop follows Algorithm 2.  Stage 1 trains agents against the cheap
FPE pseudo-reward (Eqs. 7–9) and records promising actions in a replay
buffer; stage 2 evaluates FPE-approved candidates on the real
downstream task and trains with λ-weighted gains (Eq. 10).  Every
downstream call is counted, which is what Table IV tabulates.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from ..datasets.generators import TabularTask
from ..eval import (
    BACKENDS,
    EvalStats,
    EvaluationService,
    validate_eval_timeout,
    validate_eval_workers,
)
from ..store import make_eval_backend
from ..ml.forest import RandomForestClassifier, RandomForestRegressor
from ..rl.buffer import ReplayBuffer, Transition
from ..rl.environment import FeatureSpace
from ..rl.policy import MultiAgentController, TrajectoryStep
from .evaluation import MODEL_KINDS, DownstreamEvaluator
from .filters import CandidateFilter, FPEFilter, KeepAllFilter
from .fpe import FPEModel
from .rewards import FPERewardTracker

__all__ = [
    "EngineConfig", "EpochRecord", "AFEResult", "SearchRun", "AFEEngine", "EAFE",
]


@dataclass
class EngineConfig:
    """Hyperparameters of the training loop (paper defaults noted)."""

    n_epochs: int = 10  # paper: 200; benches scale down
    stage1_epochs: int = 3  # quick-initialization epochs
    transforms_per_agent: int = 4  # T: actions per agent per epoch
    max_order: int = 5  # paper default (Fig. 8(3) sweeps it)
    thre: float = 0.01  # score-gain threshold (Fig. 8(1))
    gamma: float = 0.9  # discount
    lam: float = 0.5  # lambda of Eq. 10
    lr: float = 0.01  # paper: Adam at 0.01
    max_agents: int = 12  # RF-importance pre-filter cap (Section IV-B)
    max_subgroup: int = 32
    replay_capacity: int = 512
    n_splits: int = 5  # downstream CV folds
    n_estimators: int = 10  # downstream RF size
    model_kind: str = "rf"
    two_stage: bool = True
    per_step_rewards: bool = True  # False = NFS-style epoch-final credit
    patience: int | None = None  # early stop after N epochs w/o improvement
    eval_cache: bool = True  # memoize downstream scores by fingerprint
    eval_backend: str = "serial"  # scoring backend: "serial"|"pool"
    eval_workers: int | None = None  # worker count ("pool" only;
    # None: every core)
    eval_store_path: str | None = None  # durable shared score store
    # (SQLite file; None: a per-process in-memory cache)
    eval_speculation: bool = True  # pipeline the next agent's sweep
    # behind the in-flight one ("pool" backend only; trajectories stay
    # bit-identical to serial — mispredicted scores are discarded)
    eval_fidelity: str = "off"  # multi-fidelity spec, e.g.
    # "ladder", "surrogate", "ladder+surrogate:promote=0.25,rows=0.5"
    # (see repro.fidelity.FidelitySpec).  "off" keeps scoring exactly
    # full-CV — trajectories bit-identical to a run without the ladder.
    eval_timeout: float | None = None  # per-fit deadline, seconds
    # ("pool" only; None waits forever.  A fit over deadline is
    # cancelled, the worker generation replaced, and the candidate
    # re-scored serially — counted in AFEResult.n_timeouts.
    # Execution-only: excluded from the run-store config hash.)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be positive")
        if self.transforms_per_agent < 1:
            raise ValueError("transforms_per_agent must be positive")
        if not 0.0 <= self.lam < 1.0:
            raise ValueError("lam must be in [0, 1)")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be positive when set")
        if self.model_kind.lower() not in MODEL_KINDS:
            raise ValueError(
                f"model_kind must be one of {MODEL_KINDS}, "
                f"got {self.model_kind!r}"
            )
        if self.eval_backend not in BACKENDS:
            raise ValueError(
                f"eval_backend must be one of {BACKENDS}, "
                f"got {self.eval_backend!r}"
            )
        validate_eval_workers(self.eval_workers)
        validate_eval_timeout(self.eval_timeout)
        # Reject knobs the chosen backend never reads.
        for knob in ("eval_workers", "eval_timeout"):
            if getattr(self, knob) is not None and self.eval_backend != "pool":
                raise ValueError(
                    f"{knob} is only read by eval_backend='pool', "
                    f"got eval_backend={self.eval_backend!r}"
                )
        # Validate the fidelity spec eagerly (fail at configuration
        # time, not mid-run).  Lazy import: repro.fidelity sits above
        # the eval layer this module already pulls in.
        from ..fidelity import FidelitySpec

        FidelitySpec.parse(self.eval_fidelity)


@dataclass
class EpochRecord:
    """One learning-curve sample (Figure 7's x/y axes plus accounting)."""

    epoch: int
    elapsed: float
    n_evaluations: int
    best_score: float


@dataclass
class AFEResult:
    """Outcome of one AFE run on one dataset.

    ``stats`` is the run's :class:`~repro.eval.EvalStats` record, the
    one home of every scoring counter; each of its fields also reads
    and writes as a flat attribute (``result.n_cache_hits``,
    ``result.n_timeouts``, ...).
    """

    dataset: str
    method: str
    task: str
    base_score: float
    best_score: float
    selected_features: list[str]
    history: list[EpochRecord] = field(default_factory=list)
    n_downstream_evaluations: int = 0
    n_generated: int = 0
    n_filtered_out: int = 0
    stats: EvalStats = field(default_factory=EvalStats)
    wall_time: float = 0.0
    generation_time: float = 0.0  # time inside feature generation (Table I)
    evaluation_time: float = 0.0  # time inside downstream CV (Table I)
    selected_matrix: np.ndarray | None = None  # cached features (Table V)
    #: A stored mean regret that ``stats`` cannot reproduce (set by
    #: :meth:`from_dict`; see there).
    _stored_regret: float | None = field(default=None, init=False, repr=False)

    @property
    def improvement(self) -> float:
        """Absolute score gain over the raw feature set."""
        return self.best_score - self.base_score

    @property
    def cache_hit_rate(self) -> float:
        """Share of candidate scores served without a downstream fit."""
        return self.stats.hit_rate

    @property
    def pool_occupancy(self) -> float:
        """Peak in-flight pool tasks per worker (0.0 without a pool)."""
        return self.stats.pool_occupancy

    @property
    def fidelity_regret(self) -> float:
        """Mean |full-CV − reported| over audited approximate results."""
        if self._stored_regret is not None:
            return self._stored_regret
        return self.stats.fidelity_regret

    def to_dict(self, include_matrix: bool = False) -> dict:
        """JSON-serializable summary of the run.

        Every ``stats`` counter is emitted as a flat key, next to the
        derived ``fidelity_regret``, ``pool_occupancy`` and
        ``cache_hit_rate``.  The cached feature matrix is omitted unless
        requested (it can be large; persist it via
        :class:`~repro.frame.Frame` CSV or recompute it with a
        :class:`~repro.api.FeaturePlan`).
        """
        payload = {
            "dataset": self.dataset,
            "method": self.method,
            "task": self.task,
            "base_score": self.base_score,
            "best_score": self.best_score,
            "improvement": self.improvement,
            "selected_features": list(self.selected_features),
            "n_downstream_evaluations": self.n_downstream_evaluations,
            "n_generated": self.n_generated,
            "n_filtered_out": self.n_filtered_out,
            **asdict(self.stats),
            "fidelity_regret": self.fidelity_regret,
            "pool_occupancy": self.pool_occupancy,
            "cache_hit_rate": self.cache_hit_rate,
            "wall_time": self.wall_time,
            "generation_time": self.generation_time,
            "evaluation_time": self.evaluation_time,
            "history": [asdict(record) for record in self.history],
        }
        if include_matrix and self.selected_matrix is not None:
            payload["selected_matrix"] = self.selected_matrix.tolist()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "AFEResult":
        """Rebuild a result from :meth:`to_dict` output.

        This is how the bench run store replays completed cells on
        resume.  Python's JSON float round-trip is exact, so a restored
        result is bit-identical to the one that was stored.  Counters
        missing from the payload (older RunStores) restore as zero.
        Payloads written before ``fidelity_regret_total`` was stored
        carry only the mean; no float total divides back to every mean
        exactly, so the stored mean is kept as is.
        """
        stats = EvalStats(**{
            f.name: payload[f.name]
            for f in fields(EvalStats)
            if f.name in payload
        })
        if "fidelity_regret_total" not in payload:
            stats.fidelity_regret_total = (
                payload.get("fidelity_regret", 0.0) * stats.n_audited
            )
        regret = payload.get("fidelity_regret", stats.fidelity_regret)
        result = cls(
            dataset=payload["dataset"],
            method=payload["method"],
            task=payload["task"],
            base_score=payload["base_score"],
            best_score=payload["best_score"],
            selected_features=list(payload["selected_features"]),
            history=[
                EpochRecord(**entry) for entry in payload.get("history", [])
            ],
            n_downstream_evaluations=payload.get("n_downstream_evaluations", 0),
            n_generated=payload.get("n_generated", 0),
            n_filtered_out=payload.get("n_filtered_out", 0),
            stats=stats,
            wall_time=payload.get("wall_time", 0.0),
            generation_time=payload.get("generation_time", 0.0),
            evaluation_time=payload.get("evaluation_time", 0.0),
        )
        if regret != stats.fidelity_regret:
            result._stored_regret = regret
        if payload.get("selected_matrix") is not None:
            result.selected_matrix = np.asarray(
                payload["selected_matrix"], dtype=np.float64
            )
        return result


def _stats_alias(name: str) -> property:
    return property(
        lambda self: getattr(self.stats, name),
        lambda self, value: setattr(self.stats, name, value),
        doc=f"Flat alias of ``stats.{name}``.",
    )


for _field in fields(EvalStats):
    setattr(AFEResult, _field.name, _stats_alias(_field.name))
del _field


@dataclass
class _SweepPlan:
    """One agent's generated-and-filtered sweep, not yet scored.

    ``steps`` are the sweep's trajectory entries (blocked and filtered
    candidates already carry their -thre reward); ``pending`` holds the
    candidates that survived the filter as ``(slot, state, action,
    feature)`` where ``slot`` indexes into ``steps``.
    """

    steps: list[TrajectoryStep] = field(default_factory=list)
    pending: list[tuple] = field(default_factory=list)


@dataclass
class SearchRun:
    """What :meth:`AFEEngine.fit` hands a searcher's :meth:`~AFEEngine._search`.

    ``task`` is the caller's task, ``working`` its pre-filtered copy,
    ``service`` the run's scoring front-end (``fit`` closes it), and
    ``started`` the run's ``perf_counter`` origin.
    """

    task: TabularTask
    working: TabularTask
    service: EvaluationService
    started: float

    def open_result(
        self, method: str, base_score: float | None = None, **fields
    ) -> AFEResult:
        """A result carrying the service's stats, scoring the base if unset."""
        if base_score is None:
            base_score = self.service.evaluate(
                self.working.X.to_array(), self.working.y
            )
        fields.setdefault("selected_features", list(self.working.X.columns))
        return AFEResult(
            dataset=self.task.name,
            method=method,
            task=self.task.task,
            base_score=base_score,
            best_score=base_score,
            stats=self.service.stats,
            **fields,
        )

    def record_epoch(self, result: AFEResult, epoch: int, best_score: float) -> None:
        """Append one learning-curve sample at the current fit count."""
        result.history.append(
            EpochRecord(
                epoch=epoch,
                elapsed=time.perf_counter() - self.started,
                n_evaluations=self.service.evaluator.n_evaluations,
                best_score=best_score,
            )
        )


class AFEEngine:
    """RL-based AFE training loop with pluggable filtering strategy.

    :meth:`fit` is the one place a run is set up and accounted: it
    pre-filters the task, opens the scoring service (closed even when
    the search raises) and reads the fit count and fit seconds off the
    evaluator.  Searchers subclass and implement :meth:`_search`.
    """

    method_name = "afe"

    def __init__(
        self,
        candidate_filter: CandidateFilter | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        self.filter = candidate_filter or KeepAllFilter()
        self.config = config or EngineConfig()
        # Persistent across fit() calls: re-running the same engine over
        # the same task replays candidate scores instead of refitting.
        # With a configured store path the cache writes through to
        # SQLite, so hits are shared across processes and survive the
        # engine itself.
        self.eval_cache = make_eval_backend(self.config.eval_store_path)

    # -- helpers ------------------------------------------------------------
    def _select_agent_features(self, task: TabularTask) -> TabularTask:
        """RF-importance pre-filter (Section IV-B).

        Datasets with more raw features than ``max_agents`` keep only
        the top-importance columns; each surviving column gets an agent.
        """
        if task.n_features <= self.config.max_agents:
            return task
        X = task.X.to_array()
        if task.task == "C":
            forest = RandomForestClassifier(
                n_estimators=5, seed=self.config.seed
            ).fit(X, task.y)
        else:
            forest = RandomForestRegressor(
                n_estimators=5, seed=self.config.seed
            ).fit(X, task.y)
        order = np.argsort(forest.feature_importances_)[::-1]
        keep = sorted(order[: self.config.max_agents].tolist())
        names = [task.X.columns[j] for j in keep]
        return TabularTask(
            name=task.name, task=task.task, X=task.X.select(names), y=task.y
        )

    def _make_evaluator(self, task: TabularTask) -> DownstreamEvaluator:
        return DownstreamEvaluator(
            task=task.task,
            model_kind=self.config.model_kind,
            n_splits=self.config.n_splits,
            n_estimators=self.config.n_estimators,
            seed=self.config.seed,
        )

    def _make_service(self, evaluator: DownstreamEvaluator) -> EvaluationService:
        """Cached/batched scoring front-end for one run."""
        return EvaluationService.from_config(evaluator, self.config, self.eval_cache)

    def _make_space(self, working: TabularTask) -> FeatureSpace:
        """Environment factory; variants override to regroup features."""
        return FeatureSpace(
            working,
            max_order=self.config.max_order,
            max_subgroup=self.config.max_subgroup,
            seed=self.config.seed,
        )

    # -- stage 1 ------------------------------------------------------------
    def _stage1(
        self,
        space: FeatureSpace,
        controller: MultiAgentController,
        buffer: ReplayBuffer,
        base_score: float,
    ) -> None:
        """Quick initialization with FPE pseudo-rewards (Alg. 2 lines 1-14).

        No downstream evaluations happen here — that is the entire point
        of the stage.  Features the filter likes are accepted into the
        state *and* recorded in the replay buffer.
        """
        tracker = FPERewardTracker(
            n_agents=space.n_agents,
            base_score=base_score,
            thre=self.config.thre,
        )
        for _ in range(self.config.stage1_epochs):
            controller.reset_episode()
            tracker.reset()
            steps: list[TrajectoryStep] = []
            for agent_index in range(space.n_agents):
                for _ in range(self.config.transforms_per_agent):
                    state = space.state_vector(agent_index)
                    action = controller.act(agent_index, state)
                    feature = space.generate(agent_index, action)
                    if feature is None:
                        steps.append(
                            TrajectoryStep(agent_index, state, action, -self.config.thre)
                        )
                        continue
                    probability = self.filter.proba(feature.values)
                    reward = tracker.reward(agent_index, probability)
                    space.record_reward(agent_index, reward)
                    steps.append(TrajectoryStep(agent_index, state, action, reward))
                    if probability >= 0.5:
                        # Positive features go to the replay buffer only
                        # (Alg. 2 line 7); the state stays at the original
                        # features so stage-2 score gains stay consistent.
                        buffer.push(
                            Transition(agent_index, action, feature, reward)
                        )
            if steps:
                controller.update_from_trajectories(steps)
        # Transplant buffer knowledge into the stage-2 starting policy.
        for agent_index, count in buffer.per_agent_counts().items():
            best_actions: dict[int, float] = {}
            for transition in buffer:
                if transition.agent_index != agent_index:
                    continue
                best_actions[transition.action_index] = max(
                    best_actions.get(transition.action_index, -np.inf),
                    transition.reward,
                )
            if best_actions:
                action = max(best_actions, key=best_actions.get)
                controller.bias_agent(agent_index, action, strength=0.5)

    # -- stage 2 --------------------------------------------------------------
    def _generate_sweep(
        self,
        space: FeatureSpace,
        controller: MultiAgentController,
        agent_index: int,
        result: AFEResult,
    ) -> _SweepPlan:
        """Act/generate one agent sweep, then filter it in one batch.

        Every sweep is generated exactly once and always consumed (a
        speculative sweep is kept across acceptances, see
        :meth:`_stage2`), so ``generation_time``, ``n_generated`` and
        ``n_filtered_out`` are charged to ``result`` here.
        """
        plan = _SweepPlan()
        generated: list[tuple] = []
        for _ in range(self.config.transforms_per_agent):
            state = space.state_vector(agent_index)
            action = controller.act(agent_index, state)
            generation_started = time.perf_counter()
            feature = space.generate(agent_index, action)
            result.generation_time += time.perf_counter() - generation_started
            if feature is None:
                plan.steps.append(
                    TrajectoryStep(agent_index, state, action, -self.config.thre)
                )
                continue
            result.n_generated += 1
            plan.steps.append(TrajectoryStep(agent_index, state, action, 0.0))
            generated.append((len(plan.steps) - 1, state, action, feature))
        # Filter the sweep in one batch (one vectorized FPE inference);
        # rejected candidates get the -thre reward their step would
        # have received in the sequential loop.
        if generated:
            keeps = self.filter.keep_batch(
                [feature.values for _, _, _, feature in generated]
            )
            for (slot, state, action, feature), kept in zip(generated, keeps):
                if kept:
                    plan.pending.append((slot, state, action, feature))
                    continue
                result.n_filtered_out += 1
                plan.steps[slot] = TrajectoryStep(
                    agent_index, state, action, -self.config.thre
                )
        return plan

    def _stage2(
        self,
        run: SearchRun,
        space: FeatureSpace,
        controller: MultiAgentController,
        result: AFEResult,
        buffer: ReplayBuffer | None = None,
    ) -> None:
        """Formal training against the downstream task (Alg. 2 lines 15-22).

        Scoring is batched per sweep: an agent's surviving candidates
        are collected and streamed through
        :meth:`EvaluationService.iter_scores_async` against the
        current design matrix (the paper's Table I observation is that
        the downstream fits dwarf everything else, and a shared base
        per batch is what lets those fits be cached, deduplicated, and
        farmed out to worker processes).  With the persistent ``pool``
        backend the sweep is *pipelined*: every
        surviving candidate is in flight on the workers the moment the
        FPE filter passes it, and the loop below consumes completions
        in submission order while later fits are still running — the
        sweep never synchronizes at a batch edge.  Whenever a candidate
        is accepted the base matrix changes, so the remainder of the
        sweep is re-issued against the new base — each candidate's
        *score* is computed against the state including every
        previously accepted feature, as sequential scoring would, and
        credit assignment stays deterministic across backends (the
        in-flight scores against the abandoned base are not discarded:
        the service caches them for later).

        On top of that, the pool backend pipelines *across* sweep
        boundaries: the moment agent k's batch is submitted, agent
        k+1's sweep is generated and filtered and its survivors are
        queued speculatively behind the in-flight batch (low priority —
        confirmed work dispatches first).  If agent k's turn ends
        without an acceptance, the in-flight speculation simply *is*
        agent k+1's batch.  An acceptance discards those futures
        (``AFEResult.n_speculative_discarded`` counts them) but keeps
        the sweep: the next re-issue submits its survivors again
        against the new base, or agent k+1's turn submits them.

        The kept sweep is the one agent k+1 would generate at its own
        turn.  A sweep reads only its agent's subgroup, last reward,
        policy and sampling RNG, plus the shared operand and filter
        RNGs.  Agent k's turn, after its sweep is generated, only
        scores, records agent k's reward and accepts into agent k's
        subgroup, none of which a sweep reads or which draws from an
        RNG.  So sweeps draw the shared RNGs in agent order whether
        or not the pool speculates, and trajectories stay bit-identical
        to a run with ``eval_speculation=False`` (and to the serial
        backend).

        One deliberate deviation from a fully sequential loop remains:
        a sweep's actions are all selected (and candidates generated)
        before any is scored, so
        same-sweep rewards and acceptances are not yet visible to
        ``controller.act`` / ``space.generate`` — the price of making
        downstream fits batchable, and why per-seed trajectories differ
        slightly from the pre-batching implementation.
        """
        service, task = run.service, run.working
        base_score = result.base_score
        current_score = base_score
        best_score = base_score
        best_features = list(space.feature_names())
        # Seed from the replay buffer: stage-1's promising features are
        # verified on the real downstream task first (Alg. 2 line 16:
        # "Get feature from replay buffer").  Verified winners enter the
        # state before the formal epochs begin.
        best_matrix: np.ndarray | None = None
        if buffer is not None and not buffer.is_empty:
            queue = list(buffer.best(space.n_agents))
            result.n_generated += len(queue)
            while queue:
                base = space.feature_matrix()
                base_names = space.feature_names()
                scores = service.iter_scores_async(
                    base,
                    [transition.feature.values for transition in queue],
                    task.y,
                    base_token=space.matrix_token(),
                )
                accepted_at = None
                for index, (transition, score) in enumerate(zip(queue, scores)):
                    if score > best_score:
                        best_score = score
                        best_features = base_names + [transition.feature.name]
                        best_matrix = np.column_stack(
                            [base, transition.feature.values]
                        )
                    if score > current_score:
                        space.accept(transition.agent_index, transition.feature)
                        current_score = score
                        accepted_at = index
                        break
                if accepted_at is None:
                    break
                queue = queue[accepted_at + 1 :]
        epochs_without_improvement = 0
        # Cross-agent speculation: only worthwhile on the persistent
        # pool (serial futures are lazy — speculating there is pure
        # waste), and only across
        # agents *within* an epoch (the REINFORCE update and episode
        # reset at the epoch boundary are not speculated through).
        # Mutually exclusive with the fidelity ladder: a fidelity
        # service resolves submissions eagerly (promotion is a batch
        # decision), so speculating there would score the next sweep's
        # whole batch up front instead of filling idle workers.
        speculate = (
            self.config.eval_speculation
            and service.backend == "pool"
            and service.fidelity is None
        )
        # Agent k+1's sweep, generated during agent k's turn, and its
        # survivors' speculative futures against the current base
        # (None once an acceptance has discarded them).
        next_plan: _SweepPlan | None = None
        next_futures: list | None = None
        for epoch in range(self.config.n_epochs):
            best_before_epoch = best_score
            controller.reset_episode()
            steps: list[TrajectoryStep] = []
            for agent_index in range(space.n_agents):
                plan = next_plan
                if plan is None:
                    plan = self._generate_sweep(
                        space, controller, agent_index, result
                    )
                # Live futures were submitted against the current base:
                # their in-flight scores become this agent's first batch.
                committed = next_futures
                if committed is not None:
                    service.commit_speculative(committed)
                next_plan = next_futures = None
                queue = plan.pending
                while queue:
                    base = space.feature_matrix()
                    base_names = space.feature_names()
                    base_token = space.matrix_token()
                    if committed is not None:
                        futures = committed
                        committed = None
                    else:
                        futures = service.submit_batch(
                            base,
                            [feature.values for _, _, _, feature in queue],
                            task.y,
                            base_token=base_token,
                        )
                    # With the batch in flight, queue the *next* agent's
                    # survivors speculatively behind it — the pool stays
                    # hot across the sweep boundary.  Its sweep is
                    # generated on the first pass and kept after that.
                    if (
                        speculate
                        and next_futures is None
                        and agent_index + 1 < space.n_agents
                    ):
                        if next_plan is None:
                            next_plan = self._generate_sweep(
                                space, controller, agent_index + 1, result
                            )
                        next_futures = service.submit_batch(
                            base,
                            [entry[3].values for entry in next_plan.pending],
                            task.y,
                            base_token=base_token,
                            speculative=True,
                        )
                    accepted_at = None
                    for index, (
                        (slot, state, action, feature),
                        future,
                    ) in enumerate(zip(queue, futures)):
                        score = future.result()
                        gain = score - current_score
                        space.record_reward(agent_index, gain)
                        plan.steps[slot] = TrajectoryStep(
                            agent_index, state, action, gain
                        )
                        if score > best_score:
                            best_score = score
                            best_features = base_names + [feature.name]
                            best_matrix = np.column_stack([base, feature.values])
                        if gain > 0.0:
                            space.accept(agent_index, feature)
                            current_score = score
                            accepted_at = index
                            break
                    if accepted_at is None:
                        break
                    # The acceptance changed the base matrix: the next
                    # agent's futures were scored against the old one.
                    # Its sweep stays; the next pass re-issues the
                    # remainder and re-speculates against the new base.
                    if next_futures is not None:
                        service.discard_speculative(next_futures)
                        next_futures = None
                    queue = queue[accepted_at + 1 :]
                steps.extend(plan.steps)
            if steps:
                if not self.config.per_step_rewards:
                    # NFS-style credit: every step in the epoch receives
                    # the epoch's final aggregate gain.
                    final_gain = current_score - base_score
                    steps = [
                        TrajectoryStep(s.agent_index, s.state, s.action, final_gain)
                        for s in steps
                    ]
                controller.update_from_trajectories(steps)
            run.record_epoch(result, epoch, best_score)
            if self.config.patience is not None:
                if best_score > best_before_epoch:
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= self.config.patience:
                        break
        result.best_score = best_score
        result.selected_features = best_features
        # Cache the exact matrix that achieved best_score (column order
        # matters: the seeded per-node feature sampling of the forest
        # makes CV scores sensitive to column permutation).
        if best_matrix is not None:
            result.selected_matrix = best_matrix
        else:
            result.selected_matrix = space.task.X.to_array()

    # -- public API -----------------------------------------------------------
    def _search(self, run: SearchRun) -> AFEResult:
        """The RL search of Algorithm 2; other searchers override this."""
        space = self._make_space(run.working)
        controller = MultiAgentController(
            n_agents=space.n_agents,
            n_actions=space.n_actions,
            state_dim=space.state_dim,
            lr=self.config.lr,
            gamma=self.config.gamma,
            lam=self.config.lam,
            seed=self.config.seed,
        )
        result = run.open_result(self.method_name)
        buffer = ReplayBuffer(capacity=self.config.replay_capacity)
        if self.config.two_stage:
            self._stage1(space, controller, buffer, result.base_score)
        self._stage2(
            run, space, controller, result,
            buffer=buffer if self.config.two_stage else None,
        )
        return result

    def fit(self, task: TabularTask) -> AFEResult:
        """Run AFE on one dataset and return the full accounting."""
        started = time.perf_counter()
        working = self._select_agent_features(task)
        evaluator = self._make_evaluator(working)
        service = self._make_service(evaluator)
        try:
            result = self._search(SearchRun(task, working, service, started))
        finally:
            # Releases the persistent worker pool and its shared-memory
            # segments (a no-op for the serial backend) and flushes
            # buffered score writes — straggler fits land in the
            # evaluator's counters before they are read below.
            service.close()
        result.n_downstream_evaluations = evaluator.n_evaluations
        result.evaluation_time = evaluator.total_eval_time
        result.wall_time = time.perf_counter() - started
        return result


class EAFE(AFEEngine):
    """The paper's method: FPE filtering + two-stage training.

    Parameters
    ----------
    fpe:
        A pre-trained :class:`FPEModel`.  Training one is the job of
        :func:`repro.core.fpe.tune_fpe` or
        :func:`repro.core.pretrain.pretrain_fpe`.
    config:
        Loop hyperparameters; ``two_stage`` and ``per_step_rewards``
        are forced on (they define the method).  The caller's config is
        never mutated — the overrides land on a private copy.
    """

    method_name = "E-AFE"

    def __init__(self, fpe: FPEModel, config: EngineConfig | None = None) -> None:
        if config is None:
            config = EngineConfig(two_stage=True, per_step_rewards=True)
        else:
            config = replace(config, two_stage=True, per_step_rewards=True)
        super().__init__(FPEFilter(fpe), config)
        self.fpe = fpe
