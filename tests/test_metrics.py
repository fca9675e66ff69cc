import math
from decimal import Context, Decimal
from math import comb

import pytest

from stabnet.metrics import (
    NoiseSpec,
    RegularTreeSpec,
    Scheme,
    channel_count,
    latency,
    memory_qubits,
    success_probability,
)
from stabnet.network import NetworkTopology


class TestLatency:
    def test_reference_points(self):
        assert latency(RegularTreeSpec(3, 4), Scheme.LQC) == 4
        assert latency(RegularTreeSpec(3, 4), Scheme.EPR) == 81
        assert latency(RegularTreeSpec(4, 3), Scheme.LQC) == 3
        assert latency(RegularTreeSpec(4, 3), Scheme.EPR) == 64

    def test_depth_one(self):
        for n in range(2, 6):
            spec = RegularTreeSpec(n, 1)
            assert latency(spec, "LQC") == 1
            assert latency(spec, "EPR") == n

    def test_strictly_better_from_depth_two(self):
        for n in range(2, 7):
            for p in range(2, 7):
                spec = RegularTreeSpec(n, p)
                assert latency(spec, Scheme.LQC) < latency(spec, Scheme.EPR)


class TestMemory:
    def test_reference_points(self):
        assert memory_qubits(RegularTreeSpec(3, 3), Scheme.LQC) == 4
        assert memory_qubits(RegularTreeSpec(3, 3), Scheme.EPR) == 27
        assert memory_qubits(RegularTreeSpec(4, 4), Scheme.LQC) == 5
        assert memory_qubits(RegularTreeSpec(4, 4), Scheme.EPR) == 256

    def test_trivial_depth_can_favor_epr(self):
        # at depth 1 the coding bound n+1 exceeds the EPR figure n
        spec = RegularTreeSpec(2, 1)
        assert memory_qubits(spec, Scheme.LQC) == 3
        assert memory_qubits(spec, Scheme.EPR) == 2

    def test_constant_in_depth_for_lqc(self):
        for p in range(1, 8):
            assert memory_qubits(RegularTreeSpec(3, p), Scheme.LQC) == 4

    def test_strictly_better_from_depth_two(self):
        for n in range(2, 7):
            for p in range(2, 7):
                spec = RegularTreeSpec(n, p)
                assert memory_qubits(spec, Scheme.LQC) < memory_qubits(spec, Scheme.EPR)


class TestSuccessProbability:
    def test_zero_failure(self):
        for channels in (0, 1, 7, 100):
            assert success_probability(NoiseSpec(0.0), channels) == 1.0

    def test_single_channel(self):
        assert abs(success_probability(NoiseSpec(0.1), 1) - 0.9) < 1e-15

    def test_strictly_decreasing_in_channels(self):
        noise = NoiseSpec(0.2)
        values = [success_probability(noise, c) for c in range(10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_binomial_normalization(self):
        for n in range(1, 31):
            for p in (0.01, 0.3, 0.77):
                total = sum(
                    comb(n, k) * (1 - p) ** (n - k) * p**k for k in range(n + 1)
                )
                assert abs(total - 1.0) < 1e-12

    def test_channels_past_the_float_range(self):
        # (1.0 - p) ** channels raised OverflowError once channels passed
        # about 1.8e308; the value there is worked in logs
        huge = 2**20000 * 20000
        assert success_probability(NoiseSpec(0.1), huge) == 0.0
        assert success_probability(NoiseSpec(1.0), huge) == 0.0
        assert success_probability(NoiseSpec(0.0), huge) == 1.0
        assert success_probability(NoiseSpec(0.1), 0) == 1.0
        # the smallest p_fail, 2**-1074, over 2**1030 channels: exp(-2**-44), not 0
        survival = success_probability(NoiseSpec(2.0**-1074), 2**1030)
        assert survival == pytest.approx(math.exp(-(2.0**-44)), rel=1e-15) and survival < 1.0

    def test_tree_sweeps_match_a_decimal_reference(self):
        # (1.0 - p_fail) ** channels missed 869 of these 5220 rows: 1 - 1e-17
        # rounds to 1.0, and the rounding of 1 - p_fail grows with the power
        ctx = Context(prec=60)
        for p_fail in (1e-17, 1e-12, 1e-8, 1e-4, 0.01, 0.05, 0.1, 0.5, 0.99, 1.0):
            log_survival = ctx.ln(ctx.subtract(1, Decimal(p_fail))) if p_fail < 1 else None
            for n in range(2, 11):
                for p in range(1, 30):
                    for scheme in Scheme:
                        channels = channel_count(RegularTreeSpec(n, p), scheme)
                        exact = 0.0 if log_survival is None else float(ctx.exp(log_survival * channels))
                        error = abs(success_probability(NoiseSpec(p_fail), channels) - exact)
                        assert error <= 1e-12 * exact or error <= 1e-300, (p_fail, n, p, scheme)

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(1.5)
        with pytest.raises(ValueError):
            success_probability(NoiseSpec(0.5), -1)


class TestChannelCount:
    def test_depth_one_star_equal(self):
        for c in range(2, 6):
            spec = RegularTreeSpec(c, 1)
            assert channel_count(spec, Scheme.LQC) == c
            assert channel_count(spec, Scheme.EPR) == c

    def test_depth_two_tree(self):
        spec = RegularTreeSpec(3, 2)
        assert channel_count(spec, Scheme.LQC) == 12
        assert channel_count(spec, Scheme.EPR) == 18

    def test_topology_overload_matches_tree(self):
        spec = RegularTreeSpec(3, 2)
        t = spec.as_topology()
        assert channel_count(t, Scheme.LQC) == 12
        assert channel_count(t, Scheme.EPR) == 18

    def test_explicit_center(self):
        t = RegularTreeSpec(3, 2).as_topology()
        # a mid relay reaches its own 3 clients in 1 hop, the other 6 in 3
        mid = t.relays[1]
        assert channel_count(t, Scheme.EPR, center=mid) == 3 + 6 * 3

    def test_default_center_skips_a_relay_that_misses_clients(self):
        # an isolated relay used to refuse the whole count; it is passed
        # over, and only a topology where no relay reaches every client is refused
        nodes = (("hub", "relay"), ("a", "client"), ("b", "client"), ("spare", "relay"))
        t = NetworkTopology(nodes, (("hub", "a", 1), ("hub", "b", 1)))
        assert channel_count(t, Scheme.EPR) == channel_count(t, Scheme.EPR, center="hub") == 2
        with pytest.raises(ValueError, match=r"^clients unreachable from 'spare': \['a', 'b'\]$"):
            channel_count(t, Scheme.EPR, center="spare")
        split = NetworkTopology(nodes, (("hub", "a", 1), ("spare", "b", 1)))
        with pytest.raises(ValueError, match=r"^clients unreachable from 'hub': \['b'\]$"):
            channel_count(split, Scheme.EPR)

    def test_success_comparison_follows_channel_counts(self):
        spec = RegularTreeSpec(3, 2)
        lqc, epr = channel_count(spec, "LQC"), channel_count(spec, "EPR")
        assert lqc < epr
        for p_fail in (0.01, 0.1, 0.25, 0.5):
            noise = NoiseSpec(p_fail)
            assert success_probability(noise, lqc) > success_probability(noise, epr)


class TestRegularTreeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegularTreeSpec(1, 2)
        with pytest.raises(ValueError):
            RegularTreeSpec(3, 0)

    def test_counts(self):
        spec = RegularTreeSpec(3, 2)
        assert spec.relay_count == 4
        assert spec.client_count == 9
        assert spec.edge_count() == 12

    def test_counts_are_the_level_sums(self):
        for n in range(2, 9):
            for p in range(1, 12):
                spec = RegularTreeSpec(n, p)
                assert spec.relay_count == sum(n**level for level in range(p))
                assert spec.edge_count() == sum(n**level for level in range(1, p + 1))

    def test_as_topology_structure(self):
        spec = RegularTreeSpec(2, 3)
        t = spec.as_topology()
        assert len(t.relays) == spec.relay_count
        assert len(t.clients) == spec.client_count
        assert len(t.edges) == spec.edge_count()
        assert len(t.hops_from(t.nodes[0][0])) == len(t.nodes)

    def test_topology_has_degree_one_clients(self):
        t = RegularTreeSpec(3, 2).as_topology()
        for c in t.clients:
            assert sum(k for u, v, k in t.edges if c in (u, v)) == 1
