"""Frozen trace digests, scalar-loop references and input validation of
the traffic generators.

Every experiment, golden and benchmark in the serving stack starts from
a seeded generated trace, so the traces themselves are a contract: a
(pattern, seed, n) triple — or a tenant mix, or a region set — must
reproduce the same requests byte for byte. The digests below hash a
canonical dump of every request field (floats as ``float.hex``, so the
last bit counts) in trace order. A change to how traffic is generated
that moves any of them changes every downstream result.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.serve import (
    RenderRequest,
    TenantClass,
    generate_federation_traffic,
    generate_tenant_traffic,
    generate_traffic,
    parse_region_spec,
)
from repro.serve.traffic import _bursty_arrivals, _diurnal_arrivals


def _dump(request: RenderRequest) -> str:
    tenant = request.tenant
    return "|".join((
        str(request.request_id), request.scene, request.pipeline,
        str(request.width), str(request.height),
        float.hex(request.arrival_s), float.hex(request.slo_s),
        str(request.degraded), tenant.name,
        float.hex(tenant.slo_multiplier), float.hex(tenant.weight),
        str(tenant.tier),
    ))


def trace_digest(requests) -> str:
    text = "\n".join(_dump(request) for request in requests)
    return hashlib.sha256(text.encode()).hexdigest()


#: (pattern, seed, n_requests) -> sha256 of the canonical trace dump.
#: n=37 ends on a partial 16-request burst for the bursty pattern.
SINGLE_STREAM_DIGESTS = {
    ("steady", 0, 1): "d2deaeb505f79c47df3f977935ab77316a621597bb401214753114641e02e790",
    ("steady", 0, 37): "e21e65830cea57ffda1f7e7595403745d2dc12862804548ae56c35330adad161",
    ("steady", 0, 2000): "8eddd97872ca98f815ee1c242fe0ecceb6b5001fe5e4afe705a227e139d6582f",
    ("steady", 7, 1): "842ccc08916c34ee901a37df2eaeffbbadbee20371d5018dee5c4239d8e0f192",
    ("steady", 7, 37): "8ca2690cf632ad89bfd44eae117fe4b9c1b6bbd246e7a0979c559a977eb45259",
    ("steady", 7, 2000): "5630e15b72ad6ee7910ea77a2d009a5781ca4abe2ee1adbb6646af082915a1cc",
    ("bursty", 0, 1): "aedc5e6f4a38247030c720fdc91274f7aa0b53c24f3b7a90af1a8961da665fd7",
    ("bursty", 0, 37): "5c21693212f0fc7c674b81eac8df4f89ac6507d2a8d9fdea27b2641e6dbd4043",
    ("bursty", 0, 2000): "2833e08654136ed5a8bc266dc54833c7268e3dee27331ff8d3544d6106908b23",
    ("bursty", 7, 1): "294a0fd426f31aa20fa6352b7c8021b1967f81982cd6cff2ed0e8165e0120541",
    ("bursty", 7, 37): "d6604c28c7d789782cfc99152a514b450468669748258676fb2262a73acabc11",
    ("bursty", 7, 2000): "be07f1ee1d58fc24b55776f921fd48c03ac9724b363df3b6905130b0cc4f32db",
    ("diurnal", 0, 1): "d2deaeb505f79c47df3f977935ab77316a621597bb401214753114641e02e790",
    ("diurnal", 0, 37): "348b5342bbf04105cabe052fd6511888293c45be199d51c480c05260a1c173bf",
    ("diurnal", 0, 2000): "a716b6f0fb53d13a35118fbb536a17e422dd059e1cc1b93a9fe46419cb53f078",
    ("diurnal", 7, 1): "842ccc08916c34ee901a37df2eaeffbbadbee20371d5018dee5c4239d8e0f192",
    ("diurnal", 7, 37): "837a3759d7f147b69b89be2a9542e0f5a3402b689c0d65726785675965b3121b",
    ("diurnal", 7, 2000): "60b3f208ea33cef409d328dbade3ede686d73839a95e8a0303c34dd68de299a8",
    ("mixed", 0, 1): "d2deaeb505f79c47df3f977935ab77316a621597bb401214753114641e02e790",
    ("mixed", 0, 37): "80818dc5bb7823b8ce6230e5ddeca84c6e27d1cd5f5442ff4b5adbf927d2d3b9",
    ("mixed", 0, 2000): "271a74b8789ac56021c341f91b5f4a6f53eb13c96a550a012de77941006c60b4",
    ("mixed", 7, 1): "842ccc08916c34ee901a37df2eaeffbbadbee20371d5018dee5c4239d8e0f192",
    ("mixed", 7, 37): "1908d2d1cbb4b11e79cd57cfb8ad738e690192a049e3b9bac0458b7b8c105889",
    ("mixed", 7, 2000): "c98b62947a6cf921c2f9b6367b0ff6932422b6d594e1ad50c685fcb4be596d39",
}

TENANT_MIX = [
    (TenantClass("premium", slo_multiplier=1.0, weight=4.0, tier=0), 0.3),
    (TenantClass("economy", slo_multiplier=2.0, weight=1.0, tier=1), 0.7),
]
TENANT_OVERRIDES = {
    "premium": dict(pattern="diurnal", scenes=("room",), slo_s=0.02),
}
TENANT_DIGEST = (
    "0242e153bbaa1f770bd17979fd42511503d6fe21a8949845b195af536b331893")

FEDERATION_REGIONS = "home:tz=0,chips=2;west:tz=-5,chips=2;east:tz=9,chips=2"
FEDERATION_DIGEST = (
    "3f25f282a294a334bb4c027b7a2c6e2dfe68d3e88339e78aa5a7efbf5563c73f")


class TestFrozenDigests:
    @pytest.mark.parametrize("key", sorted(SINGLE_STREAM_DIGESTS))
    def test_single_stream(self, key):
        pattern, seed, n = key
        trace = generate_traffic(pattern, n_requests=n, seed=seed)
        assert len(trace) == n
        assert trace_digest(trace) == SINGLE_STREAM_DIGESTS[key]

    def test_tenant_mix_with_override(self):
        trace = generate_tenant_traffic(
            TENANT_MIX, pattern="bursty", n_requests=500, rate_rps=400.0,
            seed=3, overrides=TENANT_OVERRIDES)
        assert {r.tenant.name for r in trace} == {"premium", "economy"}
        assert trace_digest(trace) == TENANT_DIGEST

    def test_federation_regions(self):
        streams = generate_federation_traffic(
            parse_region_spec(FEDERATION_REGIONS),
            n_requests_per_region=300, rate_rps=200.0, seed=5)
        assert list(streams) == ["home", "west", "east"]
        text = "\n".join(
            f"{home}:{_dump(request)}"
            for home, stream in streams.items() for request in stream)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == FEDERATION_DIGEST)


def reference_bursty(n, rate_rps, rng, burst_size=16, burst_rate_factor=10.0):
    """Burst by burst, one scalar addition per step."""
    times, t, emitted = [], 0.0, 0
    while emitted < n:
        size = min(burst_size, n - emitted)
        for gap in rng.exponential(1.0 / (rate_rps * burst_rate_factor), size):
            t += gap
            times.append(t)
        emitted += size
        t += size / rate_rps * (1.0 - 1.0 / burst_rate_factor)
    return np.array(times)


def reference_diurnal(n, rate_rps, rng, period_s=4.0, depth=0.8):
    """One scalar exponential draw per arrival."""
    times, t = [], 0.0
    for _ in range(n):
        local_rate = rate_rps * (1.0 + depth * np.sin(2.0 * np.pi * t / period_s))
        t += rng.exponential(1.0 / max(local_rate, 1e-6))
        times.append(t)
    return np.array(times)


class TestArrivalShapesMatchScalarLoops:
    """The column draws add the same floats in the same order as a
    scalar loop, so the arrival arrays are equal, not merely close."""

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 33, 48, 1001])
    @pytest.mark.parametrize("burst_size", [1, 3, 16])
    def test_bursty(self, n, burst_size):
        for seed in (0, 7):
            got = _bursty_arrivals(n, 250.0, np.random.default_rng(seed),
                                   burst_size=burst_size)
            want = reference_bursty(n, 250.0, np.random.default_rng(seed),
                                    burst_size=burst_size)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 37, 1500])
    @pytest.mark.parametrize("depth", [0.8, 1.5])
    def test_diurnal(self, n, depth):
        # depth > 1 drives the rate negative at the trough, so the
        # 1e-6 clamp is exercised too.
        for seed in (0, 7):
            got = _diurnal_arrivals(n, 40.0, np.random.default_rng(seed),
                                    depth=depth)
            want = reference_diurnal(n, 40.0, np.random.default_rng(seed),
                                     depth=depth)
            assert got.tobytes() == want.tobytes()


class TestNonFiniteInputs:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_generators_reject_non_finite_rate(self, rate):
        with pytest.raises(ConfigError, match="rate must be finite"):
            generate_traffic("steady", n_requests=5, rate_rps=rate)
        with pytest.raises(ConfigError, match="rate must be finite"):
            generate_tenant_traffic(TENANT_MIX, n_requests=5, rate_rps=rate)
        with pytest.raises(ConfigError, match="rate must be finite"):
            generate_federation_traffic(
                parse_region_spec(FEDERATION_REGIONS),
                n_requests_per_region=5, rate_rps=rate)

    def test_non_positive_rate_keeps_its_error(self):
        with pytest.raises(ConfigError, match="rate must be positive"):
            generate_traffic("bursty", n_requests=5, rate_rps=0.0)

    @pytest.mark.parametrize("arrival", [math.nan, math.inf])
    def test_request_rejects_non_finite_arrival(self, arrival):
        with pytest.raises(ConfigError, match="arrival time must be finite"):
            RenderRequest(0, "lego", "mesh", 64, 64, arrival)

    def test_request_rejects_negative_arrival(self):
        with pytest.raises(ConfigError, match="cannot be negative"):
            RenderRequest(0, "lego", "mesh", 64, 64, -1.0)

    def test_request_rejects_nan_slo(self):
        with pytest.raises(ConfigError, match="latency SLO must be positive"):
            RenderRequest(0, "lego", "mesh", 64, 64, 0.0, slo_s=math.nan)

    def test_request_accepts_unbounded_slo(self):
        request = RenderRequest(0, "lego", "mesh", 64, 64, 0.0,
                                slo_s=math.inf)
        assert request.effective_slo_s == math.inf

    def test_serve_cli_rejects_nan_rate(self, capsys):
        code = main(["serve", "--rate", "nan", "--requests", "5",
                     "--width", "64", "--height", "64"])
        assert code == 2
        assert "rate must be finite" in capsys.readouterr().err
