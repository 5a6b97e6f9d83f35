"""Tests for offline pre-training (kept tiny: 2-3 iterations)."""

import hashlib
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.config import RLConfig
from repro.core.actionspace import ActionSpace
from repro.core.fast_env import FastFleetEnv, FastVssdSpec
from repro.core.pretrain import (
    _EVAL_SCENARIOS,
    PretrainResult,
    _collect_scalar,
    _evaluate_greedy,
    _merge_buffers,
    _sample_collocation,
    apply_reward_ablation,
    coef_at,
    pretrain,
    pretrain_best,
)
from repro.config import CLUSTER_ALPHAS, SSDConfig
from repro.profiling import PROFILER
from repro.rl import PolicyValueNet, RolloutBuffer
from repro.rl.policy import CategoricalPolicy
from repro.workloads.catalog import CLUSTER_GROUND_TRUTH, get_spec

#: sha256 of ``pretrain(iterations=2, seed=0)``'s flat parameters: the
#: scalar engine's output bits, pinned like the canonical cell digest.
PRETRAIN_ITER2_SEED0_SHA256 = "df643d04df73d9dc933df07b86f307ea675972ef33c5f48e19de7ea61d4de790"


def test_pretrain_returns_trained_net():
    result = pretrain(iterations=2, seed=0, rollout_batch=64, episode_windows=5)
    assert isinstance(result, PretrainResult)
    assert len(result.mean_rewards) == 2
    assert result.net.num_parameters() > 0


def test_pretrain_checkpoint_selected():
    result = pretrain(iterations=20, seed=0, rollout_batch=64, episode_windows=5)
    assert result.best_iteration >= 0
    assert np.isfinite(result.best_reward)


def test_pretrain_deterministic_given_seed():
    a = pretrain(iterations=2, seed=5, rollout_batch=64, episode_windows=5)
    b = pretrain(iterations=2, seed=5, rollout_batch=64, episode_windows=5)
    assert np.allclose(a.net.get_flat_params(), b.net.get_flat_params())


def test_sample_collocation_shape():
    rng = np.random.default_rng(0)
    config = SSDConfig()
    for _ in range(20):
        specs = _sample_collocation(rng, config)
        assert 2 <= len(specs) <= 8
        # At least one latency service and one bandwidth job, so both
        # harvesting directions exist.
        categories = {spec.workload.category for spec in specs}
        assert categories == {"latency", "bandwidth"}
        assert sum(spec.channels for spec in specs) <= config.num_channels


def test_sample_collocation_assigns_every_channel():
    """No stranded remainder: tenant channels sum to the whole device,
    with the extra channels going to the first ``num_channels % n``
    tenants, one each."""
    rng = np.random.default_rng(1)
    config = SSDConfig()
    sizes_seen = set()
    for _ in range(200):
        specs = _sample_collocation(rng, config)
        n = len(specs)
        sizes_seen.add(n)
        assert sum(spec.channels for spec in specs) == config.num_channels
        base, remainder = divmod(config.num_channels, n)
        expected = [base + (1 if i < remainder else 0) for i in range(n)]
        assert [spec.channels for spec in specs] == expected
    # The uneven mixes (the ones the old // split shortchanged) showed up.
    assert {3, 6} <= sizes_seen


def test_coef_at_stage_boundaries():
    schedule = ((0.5, 3.0), (1.0, 7.0))
    # Progress (i+1)/iterations exactly at a stage fraction still belongs
    # to that stage: iteration 4 of 10 has progress 0.5.
    assert coef_at(4, 10, schedule) == 3.0
    assert coef_at(5, 10, schedule) == 7.0
    assert coef_at(9, 10, schedule) == 7.0
    # Fractions short of 1.0 fall through to the last stage's coefficient.
    assert coef_at(9, 10, ((0.3, 1.0), (0.6, 2.0))) == 2.0
    # Single-stage schedule covers every iteration.
    assert coef_at(0, 4, ((1.0, 5.0),)) == 5.0


def test_apply_reward_ablation_overrides_in_place():
    rng = np.random.default_rng(2)
    specs = _sample_collocation(rng, SSDConfig())
    original = [spec.alpha for spec in specs]
    assert len(set(original)) > 1  # per-cluster alphas differ
    returned = apply_reward_ablation(specs, 0.42)
    assert returned is specs  # mutates and returns the same list
    assert all(spec.alpha == 0.42 for spec in specs)
    # None leaves the (now overridden) alphas untouched.
    assert apply_reward_ablation(specs, None) is specs
    assert all(spec.alpha == 0.42 for spec in specs)


def test_merge_buffers_normalizes_per_agent():
    rl = RLConfig()
    big = RolloutBuffer(rl.discount_factor, rl.gae_lambda)
    small = RolloutBuffer(rl.discount_factor, rl.gae_lambda)
    rng = np.random.default_rng(0)
    for _ in range(16):
        big.add(rng.standard_normal(3), 0, -1.0, 100.0 * rng.random(), 0.0)
        small.add(rng.standard_normal(3), 0, -1.0, 0.01 * rng.random(), 0.0)
    big.finish_path()
    small.finish_path()
    merged = _merge_buffers([big, small], rl)
    adv = np.asarray(merged.advantages)
    # Both halves contribute unit-scale advantages after normalization.
    assert np.abs(adv[:16]).max() == pytest.approx(np.abs(adv[16:]).max(), rel=2.0)
    assert len(merged) == 32


def test_interference_curriculum_applies():
    """Early iterations use the mild coefficient, late ones the harsh."""
    seen = []
    import sys

    pretrain_module = sys.modules["repro.core.pretrain"]
    original = pretrain_module.FastFleetEnv

    class SpyEnv(original):
        def __init__(self, *args, **kwargs):
            seen.append(kwargs.get("interference_coef"))
            super().__init__(*args, **kwargs)

    pretrain_module.FastFleetEnv = SpyEnv
    try:
        pretrain(iterations=4, seed=0, rollout_batch=32, episode_windows=3,
                 interference_schedule=((0.5, 1.0), (1.0, 9.0)))
    finally:
        pretrain_module.FastFleetEnv = original
    assert 1.0 in seen and 9.0 in seen


# ----------------------------------------------------------------------
# Vectorized engine (envs > 1) and the parallel seed search
# ----------------------------------------------------------------------

def test_pretrain_vectorized_returns_trained_net():
    result = pretrain(
        iterations=2, seed=0, rollout_batch=64, episode_windows=5, envs=4
    )
    assert isinstance(result, PretrainResult)
    assert len(result.mean_rewards) == 2
    assert all(np.isfinite(r) for r in result.mean_rewards)


def test_pretrain_vectorized_deterministic_given_seed():
    a = pretrain(iterations=2, seed=5, rollout_batch=64, episode_windows=5, envs=3)
    b = pretrain(iterations=2, seed=5, rollout_batch=64, episode_windows=5, envs=3)
    assert (a.net.get_flat_params() == b.net.get_flat_params()).all()
    assert a.mean_rewards == b.mean_rewards


def test_pretrain_vectorized_quality_matches_scalar():
    """The two engines explore different streams but must land in the
    same place: greedy-eval scores agree within a small tolerance."""
    scalar = pretrain(iterations=8, seed=3, rollout_batch=64, episode_windows=5)
    vector = pretrain(
        iterations=8, seed=3, rollout_batch=64, episode_windows=5, envs=4
    )
    rl, ssd = RLConfig(), SSDConfig()
    score_scalar = _evaluate_greedy(CategoricalPolicy(scalar.net), rl, ssd)
    score_vector = _evaluate_greedy(CategoricalPolicy(vector.net), rl, ssd)
    assert abs(score_scalar - score_vector) < 0.15


def test_pretrain_rejects_bad_envs():
    with pytest.raises(ValueError):
        pretrain(iterations=1, envs=0)


def test_pretrain_best_parallel_matches_serial():
    """The process fan-out selects the identical winner (same params)."""
    kwargs = dict(rollout_batch=32, episode_windows=3)
    serial = pretrain_best(seeds=(0, 1), iterations=2, **kwargs)
    parallel = pretrain_best(seeds=(0, 1), iterations=2, workers=2, **kwargs)
    assert (
        serial.net.get_flat_params() == parallel.net.get_flat_params()
    ).all()
    assert serial.best_reward == parallel.best_reward


# ----------------------------------------------------------------------
# Scalar engine: batched inference must not change a bit
# ----------------------------------------------------------------------

def _per_agent_collect(policy, rng, rl_config, ssd_config, episode_windows,
                       rollout_batch, interference_coef, alpha_override):
    """The scalar collection loop before batching: one ``policy.act`` per
    agent per window on the shared rng."""
    buffers: List[RolloutBuffer] = []
    episode_rewards: List[float] = []
    collected = 0
    while collected < rollout_batch:
        specs = apply_reward_ablation(
            _sample_collocation(rng, ssd_config), alpha_override
        )
        env = FastFleetEnv(
            specs, rl_config, ssd_config, rng,
            episode_windows=episode_windows,
            interference_coef=interference_coef,
        )
        states = env.reset()
        traj: Dict[int, RolloutBuffer] = {
            i: RolloutBuffer(rl_config.discount_factor, rl_config.gae_lambda)
            for i in states
        }
        done = False
        while not done:
            actions: Dict[int, int] = {}
            meta: Dict[int, Tuple[np.ndarray, int, float, float]] = {}
            for i, state in states.items():
                action, logp, value = policy.act(state, rng)
                actions[i] = action
                meta[i] = (state, action, logp, value)
            states, rewards, done, _info = env.step(actions)
            for i, (state, action, logp, value) in meta.items():
                traj[i].add(state, action, logp, rewards[i], value)
            episode_rewards.append(float(np.mean(list(rewards.values()))))
            collected += len(actions)
        for buf in traj.values():
            buf.finish_path(0.0)
            buffers.append(buf)
    return buffers, episode_rewards


def _per_agent_evaluate_greedy(policy, rl_config, ssd_config):
    """The greedy evaluation before batching: one ``act_deterministic``
    per agent per window."""
    totals = []
    for index, names in enumerate(_EVAL_SCENARIOS):
        channels = ssd_config.num_channels // len(names)
        specs = [
            FastVssdSpec(
                workload=get_spec(name),
                channels=channels,
                alpha=CLUSTER_ALPHAS[CLUSTER_GROUND_TRUTH.get(name, "LC-1")],
            )
            for name in names
        ]
        env = FastFleetEnv(specs, rl_config, ssd_config,
                           np.random.default_rng(1000 + index), episode_windows=30)
        states = env.reset()
        done = False
        while not done:
            actions = {i: policy.act_deterministic(s) for i, s in states.items()}
            states, rewards, done, _info = env.step(actions)
            totals.append(float(np.mean(list(rewards.values()))))
    return float(np.mean(totals))


def _random_policy(seed: int, sharpness: float = 1.0) -> CategoricalPolicy:
    rl, ssd = RLConfig(), SSDConfig()
    space = ActionSpace(ssd.channel_write_bandwidth_mbps)
    net = PolicyValueNet(rl.state_dim, space.num_actions, rl.hidden_layer_sizes,
                         rng=np.random.default_rng(seed))
    # The orthogonal init's 0.01 policy gain is near-uniform; sharpen it so
    # sampling and argmax see peaked distributions too.
    net.params["Wp"] = net.params["Wp"] * sharpness
    return CategoricalPolicy(net)


def _buffer_bits(buffers: List[RolloutBuffer]) -> list:
    return [
        (buf.states.tobytes(), buf.actions.tobytes(), buf.log_probs.tobytes(),
         buf.rewards.tobytes(), buf.values.tobytes(),
         np.asarray(buf.advantages).tobytes(), np.asarray(buf.returns).tobytes())
        for buf in buffers
    ]


@pytest.mark.parametrize("sharpness,alpha_override", [(1.0, None), (300.0, 0.05)])
def test_collect_scalar_matches_per_agent_act(sharpness, alpha_override):
    """Batched collection = per-agent ``policy.act``: byte-equal buffers
    and rewards, and the shared rng ends in the same state."""
    rl, ssd = RLConfig(), SSDConfig()
    policy = _random_policy(4, sharpness)
    rng_fast, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    with PROFILER.enabled_scope():
        before = PROFILER.counters().get("rl.batched_decisions", 0)
        fast = _collect_scalar(policy, rng_fast, rl, ssd, 6, 160, 7.0, alpha_override)
        batched = PROFILER.counters().get("rl.batched_decisions", 0) - before
    ref = _per_agent_collect(policy, rng_ref, rl, ssd, 6, 160, 7.0, alpha_override)
    assert batched == sum(len(buf) for buf in fast[0])
    assert len(fast[0]) == len(ref[0])
    assert _buffer_bits(fast[0]) == _buffer_bits(ref[0])
    assert np.asarray(fast[1]).tobytes() == np.asarray(ref[1]).tobytes()
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("sharpness", [1.0, 300.0])
def test_evaluate_greedy_matches_per_agent_argmax(sharpness):
    rl, ssd = RLConfig(), SSDConfig()
    policy = _random_policy(5, sharpness)
    fast = _evaluate_greedy(policy, rl, ssd)
    ref = _per_agent_evaluate_greedy(policy, rl, ssd)
    assert np.float64(fast).tobytes() == np.float64(ref).tobytes()


def test_pretrain_output_bits_pinned():
    """The scalar engine's trained parameters, to the bit."""
    result = pretrain(iterations=2, seed=0)
    digest = hashlib.sha256(result.net.get_flat_params().tobytes()).hexdigest()
    assert digest == PRETRAIN_ITER2_SEED0_SHA256
