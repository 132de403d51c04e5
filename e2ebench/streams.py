"""Seeded request streams for each workload, and the library oracle.

Everything here is a pure function of the workload seed: the same seed
gives a byte-identical stream (``encode`` is the wire form the server
sees).  The oracle computes each answer by calling the analysis library
directly, bypassing the serving layers, in the same way as
``benchmarks/bench_serve.py``'s ``_direct_answer``.
"""

from __future__ import annotations

import json
import random

#: cluster_mix popularity: flat enough that the shards' caches hold about
#: a quarter of the traffic, so most queries are misses and the median
#: latency sits well inside the miss population, not on the edge between
#: hits and misses.
ZIPF_EXPONENT = 0.7
POPULARITY_SEED = 20210517
MACHINES = ("k_computer", "anl", "future", "fugaku")

#: cold_scalar: kind weights (the costly batchable kinds dominate).
COLD_KIND_WEIGHTS = (("node_hours", 0.40), ("costbenefit", 0.35),
                     ("roofline", 0.25))


def encode(kind: str, params: dict) -> bytes:
    """The ``POST /query`` body for one request."""
    return json.dumps({"kind": kind, "params": params}).encode("utf-8")


def request_key(kind: str, params: dict) -> str:
    return json.dumps({"kind": kind, "params": params}, sort_keys=True)


def zipf_weights(n: int, s: float = ZIPF_EXPONENT) -> list[float]:
    return [1.0 / (rank + 1) ** s for rank in range(n)]


def popularity_order(pool: list) -> list:
    """``pool`` ranked most popular first.  The ranking is fixed (the seed
    of ``benchmarks/bench_cluster.py``), so every workload seed offers the
    same mix of kinds and answer sizes; the seed only varies the draws."""
    ranked = list(pool)
    random.Random(POPULARITY_SEED).shuffle(ranked)
    return ranked


def zipf_draws(ranked: list, count: int, rng: random.Random) -> list:
    """``count`` draws from ``ranked`` with popularity ~ 1/rank^s."""
    return rng.choices(ranked, weights=zipf_weights(len(ranked)), k=count)


def cluster_pool() -> list[tuple[str, dict]]:
    """8,192 questions: sixteen times the two shards' combined 512 cache
    entries, so a Zipf stream over it mixes hits (about a quarter) and
    misses."""
    pool = []
    speedups = [1.25 + 0.0625 * i for i in range(768)]
    for scenario in MACHINES:
        for s in speedups:
            pool.append(("node_hours", {"scenario": scenario, "speedup": s}))
            pool.append(("costbenefit", {"scenario": scenario,
                                         "me_speedup": s}))
    for device in ("v100", "a100"):
        for i in range(1024):
            pool.append(("roofline", {"device": device,
                                      "flops": 1e11 * (1.007 ** i),
                                      "nbytes": 4e9, "fmt": "fp16"}))
    return pool


def cold_requests(count: int, rng: random.Random, seen: set) -> list:
    """``count`` requests no earlier request (``seen``) repeats: continuous
    speedups / flops drawn across the kinds that take them."""
    kinds = [k for k, _ in COLD_KIND_WEIGHTS]
    weights = [w for _, w in COLD_KIND_WEIGHTS]
    out = []
    while len(out) < count:
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "node_hours":
            params = {"scenario": rng.choice(MACHINES),
                      "speedup": rng.uniform(1.0, 64.0)}
        elif kind == "costbenefit":
            params = {"scenario": rng.choice(MACHINES),
                      "me_speedup": rng.uniform(1.0, 64.0)}
        else:
            params = {"device": rng.choice(("v100", "a100")),
                      "flops": 10.0 ** rng.uniform(11.0, 14.0),
                      "nbytes": 10.0 ** rng.uniform(8.0, 10.5),
                      "fmt": "fp16"}
        key = request_key(kind, params)
        if key not in seen:
            seen.add(key)
            out.append((kind, params))
    return out


def direct_answer(kind: str, params: dict):
    """The library's answer, computed without the serving layer."""
    from repro.analysis.costbenefit import assess_scenario, me_speedup_estimate
    from repro.extrapolate import build_machine
    from repro.harness.export import to_jsonable
    from repro.hardware.registry import get_device
    from repro.hardware.roofline import (
        achievable_flops,
        arithmetic_intensity,
        machine_balance,
        roofline_time,
    )

    if kind == "node_hours":
        scenario = build_machine(params["scenario"])
        speedup = float(params["speedup"])
        return to_jsonable({
            "machine": scenario.name,
            "speedup": speedup,
            "reduction": scenario.reduction(speedup),
            "consumed_fraction": scenario.consumed_fraction(speedup),
            "throughput_improvement": scenario.throughput_improvement(speedup),
            "node_hours_saved": scenario.node_hours_saved(speedup),
        })
    if kind == "costbenefit":
        report = assess_scenario(
            build_machine(params["scenario"]),
            me_speedup=float(params["me_speedup"]),
        )
        answer = to_jsonable(report)
        answer["worthwhile"] = report.worthwhile
        answer["verdict"] = report.verdict()
        return answer
    if kind == "me_speedup":
        return to_jsonable({
            "device": params["device"],
            "fmt": params["fmt"],
            "me_speedup": me_speedup_estimate(params["device"], params["fmt"]),
        })
    if kind == "roofline":
        device = get_device(params["device"])
        fmt = params["fmt"]
        unit = device.best_unit(fmt)
        duration, t_comp, t_mem = roofline_time(
            device, unit, flops=params["flops"], nbytes=params["nbytes"],
            fmt=fmt, kind="gemm",
        )
        return to_jsonable({
            "device": params["device"],
            "unit": unit.name,
            "duration_s": duration,
            "t_compute_s": t_comp,
            "t_memory_s": t_mem,
            "bound": "compute" if t_comp >= t_mem else "memory",
            "arithmetic_intensity": arithmetic_intensity(
                params["flops"], params["nbytes"]
            ),
            "machine_balance": machine_balance(device, fmt),
            "achievable_flops": achievable_flops(unit, fmt, "gemm"),
        })
    raise ValueError(f"no direct path for {kind}")


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)
