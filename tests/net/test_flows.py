"""Max-min fairness properties and FlowEngine exactness."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FlowEngine, fat_tree, max_min_rates
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import Kernel


# ----------------------------------------------------------------------
# The pure solver
# ----------------------------------------------------------------------
class TestMaxMinAnalytic:
    def test_single_flow_takes_link_capacity(self):
        assert max_min_rates([(0,)], [100.0], [10.0]) == [10.0]

    def test_single_flow_capped_by_demand(self):
        assert max_min_rates([(0,)], [4.0], [10.0]) == [4.0]

    def test_empty_route_gets_full_demand(self):
        assert max_min_rates([()], [7.0], [10.0]) == [7.0]

    def test_even_split_on_shared_link(self):
        rates = max_min_rates([(0,), (0,)], [100.0, 100.0], [10.0])
        assert rates == [5.0, 5.0]

    def test_capped_flow_releases_headroom(self):
        # Flow 0 freezes at its 2.0 cap; flow 1 mops up the remaining 8.
        rates = max_min_rates([(0,), (0,)], [2.0, 100.0], [10.0])
        assert rates == pytest.approx([2.0, 8.0])

    def test_multi_link_bottleneck(self):
        # Flow 0 crosses both links; link 1 (cap 4) shared with flow 1.
        rates = max_min_rates([(0, 1), (1,)], [100.0, 100.0], [10.0, 4.0])
        assert rates == pytest.approx([2.0, 2.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            max_min_rates([(0,)], [1.0, 2.0], [10.0])

    def test_nonpositive_demand_rejected(self):
        with pytest.raises(ValueError):
            max_min_rates([(0,)], [0.0], [10.0])

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            max_min_rates([(0,)], [1.0], [0.0])


@st.composite
def _allocation_problems(draw):
    nlinks = draw(st.integers(min_value=1, max_value=6))
    capacities = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
            min_size=nlinks,
            max_size=nlinks,
        )
    )
    nflows = draw(st.integers(min_value=1, max_value=8))
    routes = [
        tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=nlinks - 1),
                    max_size=nlinks,
                    unique=True,
                )
            )
        )
        for _ in range(nflows)
    ]
    demands = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
            min_size=nflows,
            max_size=nflows,
        )
    )
    return routes, demands, capacities


class TestMaxMinProperties:
    @given(_allocation_problems())
    @settings(max_examples=200, deadline=None)
    def test_feasible_positive_and_bottlenecked(self, problem):
        routes, demands, capacities = problem
        rates = max_min_rates(routes, demands, capacities)

        # Every flow makes progress and never exceeds its demand cap.
        for rate, demand in zip(rates, demands):
            assert rate > 0.0
            assert rate <= demand * (1 + 1e-9)

        # No link is oversubscribed (up to float round-off).
        load = [0.0] * len(capacities)
        for route, rate in zip(routes, rates):
            for link in route:
                load[link] += rate
        for total, cap in zip(load, capacities):
            assert total <= cap * (1 + 1e-6)

        # Max-min bottleneck condition: each flow is at its demand cap
        # or crosses at least one saturated link.
        for route, rate, demand in zip(routes, rates, demands):
            at_cap = rate >= demand * (1 - 1e-6)
            saturated = any(
                load[link] >= capacities[link] * (1 - 1e-6) for link in route
            )
            assert at_cap or saturated


def _rescanning_max_min_rates(routes, demands, capacities):
    """The progressive fill as first written: every round recounts each
    link's unfrozen flows and rescans every unfrozen flow's route.  The
    oracle the freeze-by-link solver must match bit for bit."""
    eps = 1e-12
    rates = [0.0] * len(routes)
    headroom = list(capacities)
    active = list(range(len(routes)))
    while active:
        counts: dict[int, int] = {}
        for i in active:
            for link in routes[i]:
                counts[link] = counts.get(link, 0) + 1
        inc = min(demands[i] - rates[i] for i in active)
        for link, count in counts.items():
            share = headroom[link] / count
            if share < inc:
                inc = share
        if inc > 0:
            for i in active:
                rates[i] += inc
            for link, count in counts.items():
                headroom[link] -= inc * count
        saturated = {link for link in counts if headroom[link] <= eps * capacities[link]}
        still = []
        for i in active:
            if rates[i] >= demands[i] * (1 - eps):
                rates[i] = demands[i]
                continue
            if any(link in saturated for link in routes[i]):
                continue
            still.append(i)
        if len(still) == len(active):
            break
        active = still
    return rates


@st.composite
def _halo_problems(draw):
    """Re-solves shaped like a many-rank halo on a fat-tree: one shared
    demand cap, 2-link (same leaf) and 4-link (via the core) routes
    over 40 links of a few capacity classes."""
    bandwidth = 12.5e9
    capacities = [
        bandwidth * factor
        for factor in draw(
            st.lists(st.sampled_from((1.0, 0.5, 2.0, 4.0)), min_size=40, max_size=40)
        )
    ]
    demand = draw(st.sampled_from((bandwidth, 0.9 * bandwidth, 6.1e9)))
    nflows = draw(st.integers(min_value=1, max_value=60))
    routes = [
        tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=39),
                    min_size=hops,
                    max_size=hops,
                    unique=True,
                )
            )
        )
        for hops in draw(
            st.lists(st.sampled_from((2, 4)), min_size=nflows, max_size=nflows)
        )
    ]
    return routes, [demand] * nflows, capacities


class TestMaxMinMatchesRescanningFill:
    """Freezing by saturated link runs the same float operations as the
    rescanning fill, so every rate is bit-identical."""

    @staticmethod
    def check(problem):
        routes, demands, capacities = problem
        got = max_min_rates(routes, demands, capacities)
        want = _rescanning_max_min_rates(routes, demands, capacities)
        assert [r.hex() for r in got] == [r.hex() for r in want]

    @given(_allocation_problems())
    @settings(max_examples=300, deadline=None)
    def test_random_problems(self, problem):
        self.check(problem)

    @given(_halo_problems())
    @settings(max_examples=200, deadline=None)
    def test_halo_shaped_problems(self, problem):
        self.check(problem)


# ----------------------------------------------------------------------
# The event-driven engine
# ----------------------------------------------------------------------
def _engine(network, topo, metrics=None):
    kernel = Kernel()
    return kernel, FlowEngine(kernel, topo, network, metrics=metrics)


class TestFlowEngine:
    def test_flat_topology_rejected(self, ideal):
        from repro.net import flat

        with pytest.raises(ValueError, match="flat"):
            FlowEngine(Kernel(), flat(), ideal.network)

    def test_uncontended_flow_finishes_in_closed_form_time(self, ideal):
        topo = fat_tree(2, nodes_per_leaf=1)
        kernel, engine = _engine(ideal.network, topo)
        done: list[float] = []
        engine.start_flow(0, 1, 10_000, on_finish=lambda f, t: done.append(t))
        kernel.run()
        assert done == [10_000 / ideal.network.bandwidth]

    def test_shared_uplink_halves_rates(self, ideal):
        # n0,n1 under sw0; n2,n3 under sw1; both flows cross the uplink
        # (factor 1.0 at nodes_per_leaf=2), so each drains at bw/2.
        topo = fat_tree(4, nodes_per_leaf=2, uplink_capacity_factor=1.0)
        kernel, engine = _engine(ideal.network, topo)
        done: list[tuple[int, float]] = []
        engine.start_flow(0, 2, 10_000, on_finish=lambda f, t: done.append((f.fid, t)))
        engine.start_flow(1, 3, 10_000, on_finish=lambda f, t: done.append((f.fid, t)))
        kernel.run()
        expect = 2 * 10_000 / ideal.network.bandwidth
        assert done == [(0, pytest.approx(expect)), (1, pytest.approx(expect))]

    def test_late_arrival_slows_the_first_flow(self, ideal):
        # Second flow joins halfway through the first: the first runs at
        # full rate for T/2, then at half rate, finishing at 1.5x T.
        topo = fat_tree(4, nodes_per_leaf=2, uplink_capacity_factor=1.0)
        kernel, engine = _engine(ideal.network, topo)
        bw = ideal.network.bandwidth
        nbytes = 10_000
        t_solo = nbytes / bw
        done: dict[int, float] = {}
        engine.start_flow(0, 2, nbytes, on_finish=lambda f, t: done.__setitem__(f.fid, t))
        kernel.call_later(
            t_solo / 2,
            lambda: engine.start_flow(
                1, 3, nbytes, on_finish=lambda f, t: done.__setitem__(f.fid, t)
            ),
        )
        kernel.run()
        assert done[0] == pytest.approx(1.5 * t_solo)
        # The latecomer shares for t_solo, then mops up alone: half its
        # bytes at bw/2, half at bw, all starting at t_solo/2.
        assert done[1] == pytest.approx(2.0 * t_solo)

    def test_bytes_delivered_metric_is_exact(self, ideal):
        metrics = MetricsRegistry()
        topo = fat_tree(4, nodes_per_leaf=2)
        kernel, engine = _engine(ideal.network, topo, metrics=metrics)
        sizes = [1_000, 25_000, 3, 999_999]
        for i, nbytes in enumerate(sizes):
            engine.start_flow(i % 4, (i + 1) % 4, nbytes, on_finish=lambda f, t: None)
        kernel.run()
        assert metrics.counter("net.bytes_delivered").value == sum(sizes)
        assert metrics.counter("net.flows").value == len(sizes)
        assert not engine.active_flows

    def test_finish_times_deterministic(self, ideal):
        def run_once():
            topo = fat_tree(8, nodes_per_leaf=2)
            kernel, engine = _engine(ideal.network, topo)
            done: list[tuple[int, float]] = []
            for i in range(8):
                engine.start_flow(
                    i, (i + 3) % 8, 10_000 + 917 * i,
                    on_finish=lambda f, t: done.append((f.fid, t)),
                )
            kernel.run()
            return done

        first, second = run_once(), run_once()
        assert first == second  # bit-identical, not approx

    def test_zero_byte_flow_rejected(self, ideal):
        topo = fat_tree(2, nodes_per_leaf=1)
        _, engine = _engine(ideal.network, topo)
        with pytest.raises(ValueError):
            engine.start_flow(0, 1, 0, on_finish=lambda f, t: None)

    def test_path_latency_adds_hop_surcharge(self, ideal):
        topo = fat_tree(2, nodes_per_leaf=1, hop_latency=1e-7)
        _, engine = _engine(ideal.network, topo)
        # n0 -> sw0 -> core -> sw1 -> n1: four hops.
        assert engine.path_latency(0, 1) == pytest.approx(
            ideal.network.latency + 4e-7
        )
        assert engine.path_latency(0, 0) == ideal.network.latency

    def test_demand_cap_follows_stream_bandwidth(self, ideal):
        # With per-node bandwidth below 2x stream, two concurrent
        # streams each get a reduced demand cap.
        network = replace(
            ideal.network, per_node_bandwidth=1.5 * ideal.network.bandwidth
        )
        topo = fat_tree(2, nodes_per_leaf=1)
        kernel = Kernel()
        engine = FlowEngine(kernel, topo, network, concurrent_streams=2)
        assert engine.stream_cap() == pytest.approx(network.stream_bandwidth(2))
