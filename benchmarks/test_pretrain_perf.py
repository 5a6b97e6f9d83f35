"""Pre-training engine benchmark: rollout-collection throughput.

Measures the transitions-per-second of the two rollout-collection
engines in :mod:`repro.core.pretrain` — the scalar reference (one
``FastFleetEnv`` at a time, one ``forward_batch`` per window over its
agents, sampled in turn from one shared RNG) and the vectorized engine
(a lockstep :class:`VectorFastFleetEnv` fleet with one ``forward_batch``
per window over the whole fleet) — and writes ``BENCH_pretrain.json``.

Two assertions, mirroring ``test_singlerun_perf``'s strictness split:

* **The quality gate is unconditional.**  The engines draw different
  exploration streams, so their policies are equivalent rather than
  bit-identical; a short fixed-seed ``pretrain`` on each engine must
  land greedy-eval scores within a small tolerance on any host.  (The
  component-level *bit-exactness* contracts — batched act, vectorized
  window dynamics, bulk buffer appends, the scalar engine against its
  per-agent loop — live in the test suite:
  ``tests/core/test_vector_env.py``, ``tests/rl/test_buffer.py``,
  ``tests/core/test_pretrain.py``.)
* **The >= 2x throughput gate is host-gated.**  Wall clock on shared
  small hosts is too noisy for a hard assertion, so the gate is
  skipped-with-reason below 4 cores or with ``REPRO_PRETRAIN_GATE=off``
  — the JSON artifact still records the measured numbers.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.common import print_expectation, print_header
from repro.config import RLConfig, SSDConfig
from repro.core.actionspace import ActionSpace
from repro.core.pretrain import (
    _collect_scalar,
    _collect_vectorized,
    _evaluate_greedy,
    pretrain,
)
from repro.rl.nets import PolicyValueNet
from repro.rl.policy import CategoricalPolicy

#: Lockstep environments per vectorized collection round.
ENVS = 8

#: Transitions per collection round (the paper-scale rollout batch).
ROLLOUT_BATCH = 2048

#: Windows per episode during collection.
EPISODE_WINDOWS = 20

#: Timed repetitions per engine; the best round is scored.
ROUNDS = 3

#: Required collection-throughput improvement, vectorized over scalar.
MIN_SPEEDUP = 2.0

#: Greedy-eval agreement required between the engines' trained policies.
QUALITY_TOLERANCE = 0.15

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pretrain.json"


def _fresh_policy(rl_config: RLConfig, ssd_config: SSDConfig):
    rng = np.random.default_rng(0)
    space = ActionSpace(ssd_config.channel_write_bandwidth_mbps)
    net = PolicyValueNet(
        rl_config.state_dim, space.num_actions, rl_config.hidden_layer_sizes, rng=rng
    )
    return net, CategoricalPolicy(net)


def _collect_round(engine: str) -> tuple:
    """One collection round; returns (transitions, wall_s)."""
    rl_config, ssd_config = RLConfig(), SSDConfig()
    net, policy = _fresh_policy(rl_config, ssd_config)
    started = time.perf_counter()
    if engine == "scalar":
        buffers, _rewards = _collect_scalar(
            policy,
            np.random.default_rng(42),
            rl_config,
            ssd_config,
            EPISODE_WINDOWS,
            ROLLOUT_BATCH,
            7.0,
            None,
        )
    else:
        colloc_seq, env_seq, act_seq = np.random.SeedSequence(42).spawn(3)
        buffers, _rewards = _collect_vectorized(
            net,
            policy,
            np.random.default_rng(colloc_seq),
            env_seq,
            act_seq,
            rl_config,
            ssd_config,
            ENVS,
            EPISODE_WINDOWS,
            ROLLOUT_BATCH,
            7.0,
            None,
        )
    wall = time.perf_counter() - started
    return sum(len(buf) for buf in buffers), wall


@pytest.fixture(scope="module")
def measured():
    # Warm-up (imports, workload catalog, GEMM probe) outside the clock.
    _collect_round("scalar")
    _collect_round("vectorized")
    rounds = {
        engine: [_collect_round(engine) for _ in range(ROUNDS)]
        for engine in ("scalar", "vectorized")
    }
    return {
        engine: {
            "transitions": results[0][0],
            "walls_s": [wall for _t, wall in results],
            "throughput": max(t / wall for t, wall in results),
        }
        for engine, results in rounds.items()
    }


def test_pretrain_quality_within_tolerance():
    """Both engines must train to the same place at fixed seeds."""
    kwargs = dict(iterations=8, seed=3, rollout_batch=64, episode_windows=5)
    scalar = pretrain(**kwargs)
    vector = pretrain(envs=4, **kwargs)
    rl, ssd = RLConfig(), SSDConfig()
    score_scalar = _evaluate_greedy(CategoricalPolicy(scalar.net), rl, ssd)
    score_vector = _evaluate_greedy(CategoricalPolicy(vector.net), rl, ssd)
    print_expectation(
        f"greedy-eval scores within {QUALITY_TOLERANCE}",
        f"scalar {score_scalar:.3f} vs vectorized {score_vector:.3f}",
    )
    assert abs(score_scalar - score_vector) < QUALITY_TOLERANCE


def test_pretrain_collection_throughput(benchmark, measured):
    def regenerate():
        cores = os.cpu_count() or 1
        scalar, vector = measured["scalar"], measured["vectorized"]
        speedup = vector["throughput"] / scalar["throughput"]
        print_header(
            "Pre-training rollout collection",
            f"{ROLLOUT_BATCH} transitions/round, {ENVS} lockstep envs, "
            f"best of {ROUNDS} rounds",
        )
        print(f"  scalar:     {scalar['throughput']:8.0f} transitions/s")
        print(f"  vectorized: {vector['throughput']:8.0f} transitions/s")
        print(f"  speedup:    {speedup:8.2f}x")
        payload = {
            "rollout_batch": ROLLOUT_BATCH,
            "episode_windows": EPISODE_WINDOWS,
            "envs": ENVS,
            "rounds": ROUNDS,
            "cpu_count": cores,
            "scalar": {
                "transitions": scalar["transitions"],
                "walls_s": [round(w, 3) for w in scalar["walls_s"]],
                "throughput_tps": round(scalar["throughput"], 1),
            },
            "vectorized": {
                "transitions": vector["transitions"],
                "walls_s": [round(w, 3) for w in vector["walls_s"]],
                "throughput_tps": round(vector["throughput"], 1),
            },
            "speedup": round(speedup, 3),
        }
        BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {BENCH_PATH.name}")
        return payload

    payload = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print_expectation(
        f"vectorized collection >= {MIN_SPEEDUP}x scalar throughput",
        f"{payload['speedup']:.2f}x on {payload['cpu_count']} cores",
    )
    if os.environ.get("REPRO_PRETRAIN_GATE", "").lower() == "off":
        pytest.skip(
            "REPRO_PRETRAIN_GATE=off: record-only mode "
            "(BENCH_pretrain.json still records the measured numbers)"
        )
    if payload["cpu_count"] < 4:
        pytest.skip(
            f"throughput gate needs >= 4 cores, host has "
            f"{payload['cpu_count']}: shared small hosts are too noisy for "
            "a wall-clock assertion (BENCH_pretrain.json still records the "
            "measured numbers)"
        )
    assert payload["speedup"] >= MIN_SPEEDUP
