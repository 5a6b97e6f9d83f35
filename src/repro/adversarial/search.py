"""PAIRED-style regret search over scenario genomes.

The designer proposes scenarios (:mod:`repro.adversarial.genome`) and
scores each by **regret**: how much better a policy *specialized to the
scenario* does than the frozen protagonist policy.

* The **protagonist** is the policy under test — the pre-trained
  artifact we intend to deploy — evaluated greedily, frozen.
* The **antagonist** starts from the protagonist's own weights and
  fine-tunes on the candidate scenario for a few PPO iterations,
  collecting rollouts on a :class:`~repro.core.vector_env.VectorFastFleetEnv`
  lockstep fleet of genome copies, then is evaluated greedily on the
  same episodes.
* ``regret = antagonist_score − protagonist_score``.

High regret marks a scenario the protagonist handles *badly but that is
not impossible* — an unsolvable scenario hurts both policies equally
and scores near zero, so the search pressure lands on learnable
weaknesses (the PAIRED insight) rather than on noise storms.

Determinism: every draw descends from the search seed through
``SeedSequence`` spawns; candidate evaluation seeds mix the search seed
with the genome digest, so a genome's score does not depend on the
round or population slot in which it was first proposed.  The greedy
evaluations of protagonist and antagonist reuse the *same* episode
seed children — env noise draws are independent of the actions taken,
so both policies face bit-identical demand/GC/tail streams and the
regret subtraction cancels scenario luck.

Populations are scored through :mod:`repro.parallel` — one
:class:`~repro.parallel.matrix.AdversarialCell` per fresh genome —
so candidate evaluation fans across worker processes with crash
isolation, retry, and the hung-worker watchdog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.adversarial.genome import ScenarioGenome, mutate, crossover, random_genome
from repro.config import RLConfig, SSDConfig
from repro.core.actionspace import ActionSpace
from repro.core.fast_env import FastFleetEnv
from repro.core.pretrain import _merge_buffers, pretrain
from repro.core.vector_env import VectorFastFleetEnv
from repro.rl.buffer import RolloutBuffer
from repro.rl.nets import PolicyValueNet
from repro.rl.policy import CategoricalPolicy
from repro.rl.ppo import PpoTrainer

#: Crossover probability when at least two elites survive a round.
CROSSOVER_RATE = 0.3


# ----------------------------------------------------------------------
# Protagonist policies
# ----------------------------------------------------------------------
_TINY_CACHE: Dict[Tuple[int, int], Dict[str, np.ndarray]] = {}

#: Protagonist-reuse counters: a candidate evaluation that finds the
#: params already materialized (memo or disk) is a hit; only misses pay
#: the tiny pre-train.  Module-level so smoke tests can assert reuse
#: without enabling the profiler.
PROTAGONIST_STATS = {"hits": 0, "misses": 0, "disk_hits": 0}


def _count_protagonist(name: str) -> None:
    """Per-process reuse bookkeeping (smoke tests read it profiler-free)."""
    PROTAGONIST_STATS[name] += 1  # fleetlint: disable=parallel-shared-mutation  per-process observability counter; candidate outcomes, not this dict, carry the search's results across workers


def _tiny_cache_path(seed: int, iterations: int) -> Any:
    """On-disk home of the tiny protagonist for this configuration.

    Keyed like the full pre-trained artifact (RL config defaults +
    sampler version) so a training-stack change invalidates stale
    params instead of silently reusing them.
    """
    from dataclasses import asdict

    from repro.core.pretrain import SAMPLER_VERSION
    from repro.harness.pretrained import _cache_dir, _config_hash

    digest = _config_hash(
        {
            "seed": seed,
            "iterations": iterations,
            "episode_windows": 8,
            "rollout_batch": 96,
            "envs": 1,
            "rl_config": asdict(RLConfig()),
            "sampler_version": SAMPLER_VERSION,
        }
    )
    return _cache_dir() / f"tiny_protagonist_{digest}.npz"


def tiny_protagonist_params(
    seed: int = 7, iterations: int = 2
) -> Dict[str, np.ndarray]:
    """A minimally pre-trained policy for smokes and tests.

    Real hardening runs search against the full pre-trained artifact;
    CI smokes cannot afford that, so this trains a deliberately
    under-cooked policy (which also gives the antagonist headroom and
    the search a signal).  Memoized per (seed, iterations) within the
    process and cached on disk beside the pre-trained policy, so
    spawned workers and later invocations skip the training too.
    """
    key = (seed, iterations)
    if key in _TINY_CACHE:
        _count_protagonist("hits")
        return _TINY_CACHE[key]
    path = _tiny_cache_path(seed, iterations)
    if path.exists():
        with np.load(path, allow_pickle=False) as data:
            params = {name: data[name].copy() for name in data.files}
        _count_protagonist("hits")
        _count_protagonist("disk_hits")
    else:
        _count_protagonist("misses")
        result = pretrain(
            iterations=iterations,
            seed=seed,
            episode_windows=8,
            rollout_batch=96,
            envs=1,
        )
        params = {k: v.copy() for k, v in result.net.params.items()}
        from repro.harness.pretrained import _atomic_replace

        _atomic_replace(lambda tmp: np.savez(tmp, **params), path)
    _TINY_CACHE[key] = params  # fleetlint: disable=parallel-shared-mutation  deterministic per-key memo; a forked worker refills its private copy with identical bytes, nothing needs merging
    return _TINY_CACHE[key]


def resolve_protagonist(spec: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """Materialize protagonist params from a serializable spec.

    ``{"kind": "tiny", "seed": 7, "iterations": 2}`` trains (or reuses)
    the tiny CI policy; ``{"kind": "pretrained", ...}`` loads the full
    pre-trained artifact through the experiment harness cache, passing
    the remaining keys to ``get_pretrained_net``.
    """
    kind = spec.get("kind", "tiny")
    if kind == "tiny":
        return tiny_protagonist_params(
            seed=int(spec.get("seed", 7)),
            iterations=int(spec.get("iterations", 2)),
        )
    if kind == "pretrained":
        from repro.harness.pretrained import get_pretrained_net

        options = {k: v for k, v in spec.items() if k != "kind"}
        net = get_pretrained_net(**options)
        return {k: v.copy() for k, v in net.params.items()}
    raise ValueError(f"unknown protagonist kind {kind!r}")


def _net_from_params(
    params: Mapping[str, np.ndarray], rl_config: RLConfig, num_actions: int
) -> PolicyValueNet:
    """A fresh net carrying (a copy of) ``params``.

    The architecture comes from ``rl_config`` — loading params trained
    under a different ``hidden_layer_sizes`` is a caller error and
    surfaces as a shape mismatch on first forward.
    """
    net = PolicyValueNet(
        rl_config.state_dim, num_actions, rl_config.hidden_layer_sizes
    )
    net.params = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    net.mark_params_updated()
    return net


# ----------------------------------------------------------------------
# Candidate evaluation (the worker-side unit of work)
# ----------------------------------------------------------------------
def _greedy_score(
    policy: CategoricalPolicy,
    genome: ScenarioGenome,
    episode_seqs: List[np.random.SeedSequence],
    rl_config: RLConfig,
    ssd_config: SSDConfig,
) -> Tuple[float, float]:
    """(mean blended reward, mean SLO violation) over fixed episodes."""
    rewards: List[float] = []
    violations: List[float] = []
    profile = genome.fault_profile()
    for seq in episode_seqs:
        env = FastFleetEnv(
            genome.specs(ssd_config),
            rl_config,
            ssd_config,
            np.random.default_rng(seq),
            episode_windows=genome.episode_windows,
            fault_profile=profile,
        )
        states = env.reset()
        done = False
        while not done:
            actions = {i: policy.act_deterministic(s) for i, s in states.items()}
            states, step_rewards, done, info = env.step(actions)
            rewards.append(float(np.mean(list(step_rewards.values()))))
            violations.append(
                float(np.mean([s.slo_violation_frac for s in info["stats"]]))
            )
    return float(np.mean(rewards)), float(np.mean(violations))


def _finetune_antagonist(
    params: Mapping[str, np.ndarray],
    genome: ScenarioGenome,
    antag_seq: np.random.SeedSequence,
    rl_config: RLConfig,
    ssd_config: SSDConfig,
    iterations: int,
    envs: int,
) -> CategoricalPolicy:
    """Clone the protagonist and fine-tune it on the candidate scenario.

    One lockstep :class:`VectorFastFleetEnv` episode of ``envs`` genome
    copies per iteration: a single ``forward_batch`` per window drives
    every copy's agents, each sampling from its own spawned stream —
    the same engine (and rate, Table 3's 1e-4) as deployment
    fine-tuning, aimed at one scenario instead of a sampled mix.
    """
    num_actions = ActionSpace(ssd_config.channel_write_bandwidth_mbps).num_actions
    net = _net_from_params(params, rl_config, num_actions)
    policy = CategoricalPolicy(net)
    trainer_seq, env_seq, act_seq = antag_seq.spawn(3)
    trainer = PpoTrainer(net, rl_config, np.random.default_rng(trainer_seq))
    profile = genome.fault_profile()
    for _iteration in range(iterations):
        env = VectorFastFleetEnv(
            [genome.specs(ssd_config) for _ in range(envs)],
            rl_config,
            ssd_config,
            rngs=[np.random.default_rng(child) for child in env_seq.spawn(envs)],
            episode_windows=genome.episode_windows,
            fault_profiles=[profile] * envs,
        )
        pairs = [
            (k, i)
            for k in range(env.num_envs)
            for i in range(int(env.n_per_env[k]))
        ]
        act_rngs = [
            np.random.default_rng(child) for child in act_seq.spawn(len(pairs))
        ]
        states = env.reset()
        traj_states: List[List[np.ndarray]] = [[] for _ in pairs]
        traj_actions: List[List[int]] = [[] for _ in pairs]
        traj_logps: List[List[float]] = [[] for _ in pairs]
        traj_rewards: List[List[float]] = [[] for _ in pairs]
        traj_values: List[List[float]] = [[] for _ in pairs]
        done = False
        while not done:
            flat = states[env.mask]
            logits, values = net.forward_batch(flat)
            padded = np.zeros((env.num_envs, env.n_max), dtype=np.int64)
            for m, (k, i) in enumerate(pairs):
                action, logp, value = policy.act_from_logits(
                    logits[m], float(values[m]), act_rngs[m]
                )
                padded[k, i] = action
                traj_states[m].append(flat[m])
                traj_actions[m].append(action)
                traj_logps[m].append(logp)
                traj_values[m].append(value)
            states, rewards, done, _info = env.step(padded)
            for m, (k, i) in enumerate(pairs):
                traj_rewards[m].append(float(rewards[k, i]))
        buffers: List[RolloutBuffer] = []
        for m in range(len(pairs)):
            buf = RolloutBuffer(rl_config.discount_factor, rl_config.gae_lambda)
            buf.add_batch(
                np.asarray(traj_states[m], dtype=np.float64),
                traj_actions[m],
                traj_logps[m],
                traj_rewards[m],
                traj_values[m],
            )
            buf.finish_path(0.0)
            buffers.append(buf)
        trainer.update(_merge_buffers(buffers, rl_config))
    return policy


def evaluate_genome(
    genome: ScenarioGenome,
    protagonist_params: Mapping[str, np.ndarray],
    seed: int,
    *,
    antagonist_iters: int = 2,
    eval_episodes: int = 2,
    envs: int = 2,
    rl_config: Optional[RLConfig] = None,
    ssd_config: Optional[SSDConfig] = None,
) -> Dict[str, float]:
    """Score one scenario: regret plus both sides' raw metrics."""
    rl_config = rl_config or RLConfig()
    ssd_config = ssd_config or SSDConfig()
    genome.validate(ssd_config.num_channels)
    eval_seq, antag_seq = np.random.SeedSequence(seed).spawn(2)
    # Both greedy evaluations reuse the same episode children: the envs'
    # noise draws do not depend on the actions taken, so protagonist and
    # antagonist face bit-identical streams and regret cancels luck.
    episode_seqs = eval_seq.spawn(eval_episodes)
    num_actions = ActionSpace(ssd_config.channel_write_bandwidth_mbps).num_actions
    protagonist = CategoricalPolicy(
        _net_from_params(protagonist_params, rl_config, num_actions)
    )
    p_score, p_violation = _greedy_score(
        protagonist, genome, episode_seqs, rl_config, ssd_config
    )
    antagonist = _finetune_antagonist(
        protagonist_params,
        genome,
        antag_seq,
        rl_config,
        ssd_config,
        antagonist_iters,
        envs,
    )
    a_score, a_violation = _greedy_score(
        antagonist, genome, episode_seqs, rl_config, ssd_config
    )
    return {
        "regret": a_score - p_score,
        "protagonist_score": p_score,
        "antagonist_score": a_score,
        "protagonist_violation": p_violation,
        "antagonist_violation": a_violation,
    }


def evaluate_cell(cell: Any) -> Dict[str, float]:
    """Worker entry point: score an ``AdversarialCell``."""
    genome = ScenarioGenome.from_json(cell.genome_json)
    params = resolve_protagonist(dict(cell.protagonist))
    return evaluate_genome(
        genome,
        params,
        cell.seed,
        antagonist_iters=cell.antagonist_iters,
        eval_episodes=cell.eval_episodes,
        envs=cell.envs,
    )


# ----------------------------------------------------------------------
# The search loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CandidateResult:
    """One scored scenario."""

    genome: ScenarioGenome
    regret: float
    protagonist_score: float
    antagonist_score: float
    protagonist_violation: float
    seed: int


@dataclass
class SearchResult:
    """Outcome of an adversarial search run."""

    candidates: List[CandidateResult] = field(default_factory=list)
    rounds: int = 0
    evaluations: int = 0
    failures: int = 0

    def top(self, k: int) -> List[CandidateResult]:
        """The ``k`` highest-regret scenarios (ties broken by digest)."""
        ranked = sorted(
            self.candidates, key=lambda c: (-c.regret, c.genome.digest)
        )
        return ranked[:k]


def _candidate_seed(search_seed: int, digest: str) -> int:
    """Deterministic per-genome evaluation seed.

    Mixing the digest in makes a genome's score a function of (search
    seed, genome) only — re-proposing it in a later round or another
    population slot cannot change its regret.
    """
    return (search_seed * 1_000_003 + int(digest[:8], 16)) % (2**31 - 1)


def adversarial_search(
    protagonist: Mapping[str, Any],
    *,
    rounds: int = 2,
    population: int = 4,
    seed: int = 0,
    workers: Optional[int] = None,
    antagonist_iters: int = 2,
    eval_episodes: int = 2,
    envs: int = 2,
    episode_windows: int = 16,
    num_channels: Optional[int] = None,
    verbose: bool = False,
) -> SearchResult:
    """Evolve a population of scenarios toward high regret.

    Each round scores every not-yet-evaluated genome (via
    :mod:`repro.parallel` when ``workers``), keeps the top half as
    elites, and refills the population with seeded mutations (plus
    occasional crossover).  Scores are cached by genome digest, so a
    re-proposed scenario costs nothing and determinism is preserved
    regardless of worker scheduling.
    """
    from repro.parallel.matrix import AdversarialCell
    from repro.parallel.runner import CellFailure, ParallelRunner, run_serial

    if rounds < 1 or population < 2:
        raise ValueError("need rounds >= 1 and population >= 2")
    num_channels = num_channels or SSDConfig().num_channels
    protagonist_spec = tuple(sorted(protagonist.items(), key=lambda kv: kv[0]))
    # Resolve the protagonist once, up front: every candidate shares the
    # warmed copy — forked workers inherit the memo copy-on-write, pooled
    # workers keep theirs across candidates, and spawn-mode workers load
    # the disk artifact this call just wrote — so no candidate ever
    # re-trains or re-fetches the policy under test.
    resolve_protagonist(dict(protagonist))
    rng = np.random.default_rng(seed)
    pop = [
        random_genome(rng, num_channels=num_channels, episode_windows=episode_windows)
        for _ in range(population)
    ]
    scored: Dict[str, CandidateResult] = {}
    result = SearchResult()
    for round_index in range(rounds):
        fresh = []
        seen = set()
        for genome in pop:
            digest = genome.digest
            if digest not in scored and digest not in seen:
                seen.add(digest)
                fresh.append(genome)
        cells = [
            AdversarialCell(
                genome_json=genome.canonical_json(),
                seed=_candidate_seed(seed, genome.digest),
                protagonist=protagonist_spec,
                antagonist_iters=antagonist_iters,
                eval_episodes=eval_episodes,
                envs=envs,
            )
            for genome in fresh
        ]
        if workers is not None and workers > 1:
            # Persistent pool: workers outlive candidates, so each
            # worker resolves the protagonist at most once per search.
            sweep = ParallelRunner(workers=workers, profile=False).run(cells)
        else:
            sweep = run_serial(cells, profile=False)
        for genome, outcome in zip(fresh, sweep.outcomes):
            result.evaluations += 1
            if isinstance(outcome, CellFailure):
                result.failures += 1
                continue
            metrics = outcome.result
            assert isinstance(metrics, dict)
            scored[genome.digest] = CandidateResult(
                genome=genome,
                regret=float(metrics["regret"]),
                protagonist_score=float(metrics["protagonist_score"]),
                antagonist_score=float(metrics["antagonist_score"]),
                protagonist_violation=float(metrics["protagonist_violation"]),
                seed=_candidate_seed(seed, genome.digest),
            )
        ranked = sorted(
            (scored[g.digest] for g in pop if g.digest in scored),
            key=lambda c: (-c.regret, c.genome.digest),
        )
        if verbose and ranked:  # pragma: no cover - logging
            best = ranked[0]
            print(
                f"round {round_index}: best regret {best.regret:.4f} "
                f"({best.genome.digest})"
            )
        if round_index == rounds - 1:
            break
        elites = [c.genome for c in ranked[: max(1, (population + 1) // 2)]]
        if not elites:  # every candidate failed: start a fresh population
            pop = [
                random_genome(
                    rng, num_channels=num_channels, episode_windows=episode_windows
                )
                for _ in range(population)
            ]
            continue
        children: List[ScenarioGenome] = []
        while len(elites) + len(children) < population:
            if len(elites) >= 2 and rng.random() < CROSSOVER_RATE:
                i = int(rng.integers(0, len(elites)))
                j = int(rng.integers(0, len(elites)))
                parent = crossover(elites[i], elites[j], rng)
            else:
                parent = elites[int(rng.integers(0, len(elites)))]
            children.append(mutate(parent, rng))
        pop = elites + children
    result.candidates = sorted(
        scored.values(), key=lambda c: (-c.regret, c.genome.digest)
    )
    result.rounds = rounds
    return result


__all__ = [
    "CandidateResult",
    "SearchResult",
    "adversarial_search",
    "evaluate_cell",
    "evaluate_genome",
    "resolve_protagonist",
    "tiny_protagonist_params",
]
