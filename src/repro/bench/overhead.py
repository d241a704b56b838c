"""Overhead measurements: Tables V and VI plus §V-F analyses.

Every function runs real workloads under the three tracking modes and
returns structured rows carrying both the measured ratios and the
paper's published values, so reports (and EXPERIMENTS.md) can show the
comparison directly.

Absolute milliseconds are not comparable to the paper (simulated Python
substrate vs JVMs on VMware); the reproduced claims are the *ratios* and
their ordering — see DESIGN.md substitutions.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Optional

from repro.microbench.cases import CASES, SOCKET_CASES
from repro.microbench.workload import run_case
from repro.runtime.modes import Mode
from repro.systems import ALL_SYSTEMS
from repro.systems.common import SDT, SIM

#: Paper Table V (Phosphor overhead, DisTA overhead) per protocol row.
PAPER_TABLE5 = {
    "JRE Socket-Best": (2.07, 2.45),
    "JRE Socket-Worst": (3.91, 5.81),
    "JRE Socket-Avg": (2.52, 4.09),
    "JRE Datagram": (3.43, 4.05),
    "JRE SocketChannel": (2.97, 3.29),
    "JRE DatagramChannel": (2.99, 3.19),
    "JRE AIO": (2.97, 3.02),
    "JRE HTTP": (1.50, 2.14),
    "Netty Socket": (2.47, 3.35),
    "Netty DatagramSocket": (2.44, 4.08),
    "Netty HTTP": (4.93, 6.21),
    "Average": (2.62, 3.95),
}

#: Paper Table VI (Phosphor-SDT, DisTA-SDT, Phosphor-SIM, DisTA-SIM).
PAPER_TABLE6 = {
    "ZooKeeper": (3.11, 4.09, 3.15, 4.33),
    "MapReduce/Yarn": (3.75, 3.77, 4.01, 4.02),
    "ActiveMQ": (4.70, 5.00, 4.81, 5.07),
    "RocketMQ": (4.88, 5.19, 5.32, 5.58),
    "HBase+ZooKeeper": (3.94, 4.47, 4.09, 4.78),
    "Average": (3.92, 4.23, 4.12, 4.76),
}


@dataclass
class OverheadRow:
    """One Table-V row: a protocol under the three modes."""

    name: str
    original_s: float
    phosphor_s: float
    dista_s: float
    paper_phosphor: Optional[float] = None
    paper_dista: Optional[float] = None

    @property
    def phosphor_overhead(self) -> float:
        return self.phosphor_s / self.original_s

    @property
    def dista_overhead(self) -> float:
        return self.dista_s / self.original_s


def _measure_case(case, mode: Mode, size: int, repeats: int) -> float:
    return min(run_case(case, mode, size=size).duration for _ in range(repeats))


def run_table5(size: int = 32 * 1024, repeats: int = 2) -> list[OverheadRow]:
    """Regenerate Table V: micro-benchmark overhead per protocol group."""
    times: dict[str, dict[Mode, float]] = {}
    for case in CASES:
        times[case.name] = {
            mode: _measure_case(case, mode, size, repeats)
            for mode in (Mode.ORIGINAL, Mode.PHOSPHOR, Mode.DISTA)
        }

    rows: list[OverheadRow] = []

    def add(name: str, case_names: list[str], aggregate=statistics.mean) -> OverheadRow:
        row = OverheadRow(
            name,
            aggregate([times[n][Mode.ORIGINAL] for n in case_names]),
            aggregate([times[n][Mode.PHOSPHOR] for n in case_names]),
            aggregate([times[n][Mode.DISTA] for n in case_names]),
            *(PAPER_TABLE5.get(name, (None, None))),
        )
        rows.append(row)
        return row

    socket_names = [c.name for c in SOCKET_CASES]
    dista_ratio = lambda n: times[n][Mode.DISTA] / times[n][Mode.ORIGINAL]
    add("JRE Socket-Best", [min(socket_names, key=dista_ratio)])
    add("JRE Socket-Worst", [max(socket_names, key=dista_ratio)])
    add("JRE Socket-Avg", socket_names)
    for protocol, row_name in [
        ("JRE Datagram", "JRE Datagram"),
        ("JRE SocketChannel", "JRE SocketChannel"),
        ("JRE DatagramChannel", "JRE DatagramChannel"),
        ("JRE AIO", "JRE AIO"),
        ("JRE HTTP", "JRE HTTP"),
        ("Netty Socket", "Netty Socket"),
        ("Netty DatagramSocket", "Netty DatagramSocket"),
        ("Netty HTTP", "Netty HTTP"),
    ]:
        add(row_name, [c.name for c in CASES if c.protocol == protocol])
    add("Average", [c.name for c in CASES])
    return rows


@dataclass
class SystemOverheadRow:
    """One Table-VI row: a system under five configurations."""

    name: str
    original_s: float
    phosphor_sdt_s: float
    dista_sdt_s: float
    phosphor_sim_s: float
    dista_sim_s: float
    sdt_global_taints: int = 0
    sim_global_taints: int = 0
    paper: tuple = (None, None, None, None)

    def overheads(self) -> tuple[float, float, float, float]:
        return (
            self.phosphor_sdt_s / self.original_s,
            self.dista_sdt_s / self.original_s,
            self.phosphor_sim_s / self.original_s,
            self.dista_sim_s / self.original_s,
        )

    def taint_counts(self) -> tuple:
        """§V-F: (scenario, global taints, DisTA overhead) for SDT and SIM."""
        _, d_sdt, _, d_sim = self.overheads()
        return (
            (SDT, self.sdt_global_taints, d_sdt),
            (SIM, self.sim_global_taints, d_sim),
        )


def _measure_system(module, mode: Mode, scenario, repeats: int) -> tuple[float, int]:
    best = None
    taints = 0
    for _ in range(repeats):
        result = module.run_workload(mode, scenario)
        if best is None or result.duration < best:
            best = result.duration
        taints = max(taints, result.global_taints)
    return best, taints


def run_table6(repeats: int = 2) -> list[SystemOverheadRow]:
    """Regenerate Table VI: real-system overhead in SDT/SIM scenarios."""
    rows = []
    for name, module in ALL_SYSTEMS.items():
        original, _ = _measure_system(module, Mode.ORIGINAL, None, repeats)
        phosphor_sdt, _ = _measure_system(module, Mode.PHOSPHOR, SDT, repeats)
        dista_sdt, sdt_taints = _measure_system(module, Mode.DISTA, SDT, repeats)
        phosphor_sim, _ = _measure_system(module, Mode.PHOSPHOR, SIM, repeats)
        dista_sim, sim_taints = _measure_system(module, Mode.DISTA, SIM, repeats)
        rows.append(
            SystemOverheadRow(
                name, original, phosphor_sdt, dista_sdt, phosphor_sim, dista_sim,
                sdt_taints, sim_taints, PAPER_TABLE6[name],
            )
        )
    average = SystemOverheadRow(
        "Average",
        statistics.mean(r.original_s for r in rows),
        statistics.mean(r.phosphor_sdt_s for r in rows),
        statistics.mean(r.dista_sdt_s for r in rows),
        statistics.mean(r.phosphor_sim_s for r in rows),
        statistics.mean(r.dista_sim_s for r in rows),
        paper=PAPER_TABLE6["Average"],
    )
    rows.append(average)
    return rows


@dataclass
class NetworkOverheadResult:
    original_bytes: int
    dista_bytes: int
    paper_claim: float = 5.0

    @property
    def ratio(self) -> float:
        return self.dista_bytes / self.original_bytes


def measure_network_overhead(size: int = 16 * 1024) -> NetworkOverheadResult:
    """§V-F: DisTA's fixed 4-byte GID per data byte ⇒ ~5× wire traffic."""
    from repro.microbench.cases import CASES_BY_NAME

    case = CASES_BY_NAME["socket_bytes_bulk"]
    original = run_case(case, Mode.ORIGINAL, size=size)
    dista = run_case(case, Mode.DISTA, size=size)
    return NetworkOverheadResult(original.wire_bytes, dista.wire_bytes)
