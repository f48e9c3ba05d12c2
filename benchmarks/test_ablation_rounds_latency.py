"""Extension ablation — roundtrip budget vs link latency (§7).

The paper notes that for large collections roundtrips amortise across
files, but asks what happens "restricted to just one or two round-trips".
Capping map-construction rounds trades bytes for latency; on a
high-latency link the capped variants win on wall-clock despite sending
more data.  (Wall-clock is modelled per file here — the uncapped
protocol's latency penalty is an upper bound, since batching across
files would amortise it.)
"""

from __future__ import annotations

from conftest import publish

from repro.bench import format_kb, render_table
from repro.core import ProtocolConfig, synchronize
from repro.net import LinkModel, SimulatedChannel
from repro.workloads import gcc_like

ROUND_CAPS = (1, 2, 4, None)
LINKS = {
    "lan (1ms)": LinkModel(bandwidth_bps=10_000_000, latency_s=0.001),
    "dsl (50ms)": LinkModel(bandwidth_bps=1_000_000, latency_s=0.05),
    "satellite (300ms)": LinkModel(bandwidth_bps=1_000_000, latency_s=0.3),
}


def test_ablation_rounds_latency(benchmark):
    tree = gcc_like(scale=0.1, seed=5)
    # One representative changed file pair keeps per-file latency honest.
    name = next(
        n for n in tree.common_names() if tree.old[n] != tree.new[n]
    )
    old, new = tree.old[name], tree.new[name]

    rows = []
    times: dict[tuple[str, object], float] = {}
    bytes_by_cap = {}
    for cap in ROUND_CAPS:
        config = ProtocolConfig(max_rounds=cap)
        base_channel = SimulatedChannel()
        result = synchronize(old, new, config, base_channel)
        assert result.reconstructed == new
        bytes_by_cap[cap] = result.total_bytes
        row = [
            "uncapped" if cap is None else f"{cap} rounds",
            format_kb(result.total_bytes),
            result.stats.roundtrips,
        ]
        for link_name, link in LINKS.items():
            seconds = link.transfer_seconds(
                result.stats.client_to_server_bytes,
                result.stats.server_to_client_bytes,
                result.stats.roundtrips,
            )
            times[(link_name, cap)] = seconds
            row.append(f"{seconds:.2f}")
        rows.append(row)

    publish(
        "ablation_rounds_latency",
        render_table(
            ["round cap", "KB", "roundtrips"] + [f"{n} s" for n in LINKS],
            rows,
            title=f"Ablation — rounds vs latency (file {name}, "
                  f"{len(new)} B)",
        ),
    )

    # More rounds, fewer bytes.
    assert bytes_by_cap[1] >= bytes_by_cap[2] >= bytes_by_cap[None]
    # On the satellite link a capped variant beats the uncapped one.
    best_capped = min(times[("satellite (300ms)", cap)] for cap in (1, 2))
    assert best_capped < times[("satellite (300ms)", None)]
    # On the LAN the uncapped variant is at no meaningful disadvantage.
    assert times[("lan (1ms)", None)] < times[("satellite (300ms)", None)]

    benchmark.pedantic(
        synchronize, args=(old, new, ProtocolConfig(max_rounds=2)),
        iterations=1, rounds=1,
    )
