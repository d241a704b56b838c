"""The benchmark's four closed-loop workloads and their correctness checks.

Each workload is driven by one client thread over one connection: the
next operation starts only after the previous one completed.  A
workload object is one *leg*: it boots its own ``Cluster`` (shadow
``POLICY`` is process-global, so a leg never shares a cluster with the
other mode), runs operations on demand, and tears everything down.

* ``stream-taint`` - the paper's Fig. 10 exchange on a long-lived socket,
  every byte tainted with one fixed tag per side.
* ``stream-clean`` - the same traffic with no taint at all.
* ``taint-churn`` - small requests built from fresh source firings, so
  every operation registers and looks up unseen Global IDs.
* ``sim-jobs`` - whole SIM runs of the five real-system workloads.

All inputs (payload bytes, tag names, system order) come from
:func:`make_inputs`; the program under test receives only those.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro import appmodel
from repro.jre.socket_api import ServerSocket, Socket
from repro.obs.registry import snapshot_total
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.taint.values import TBytes

WORKLOADS = ("stream-taint", "stream-clean", "taint-churn", "sim-jobs")

STREAM_PAYLOAD = 16 * 1024
CHURN_CHUNK = 64
CHURN_SOURCES = 8
#: Distinct seeded payloads cycled through by the socket workloads.
PAYLOAD_POOL = 8
PORT = 9100
SOURCE_DESCRIPTOR = "benchmark.Client#readRecord"
#: A socket read or a sim job that takes longer than this is a wedge,
#: counted as a failed operation rather than left to hang the run.
OP_TIMEOUT_S = 20.0


@dataclass(frozen=True)
class Inputs:
    """Everything a workload feeds the program, generated from the seed."""

    requests: tuple = ()
    replies: tuple = ()
    tag_prefix: str = ""
    systems: tuple = ()


def make_inputs(workload: str, seed: int) -> Inputs:
    """Seeded inputs: the same seed always gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    prefix = f"s{seed}-{rng.getrandbits(32):08x}"
    if workload == "sim-jobs":
        systems = list(SYSTEMS)
        rng.shuffle(systems)
        return Inputs(tag_prefix=prefix, systems=tuple(systems))
    if workload == "taint-churn":
        size, reply = CHURN_CHUNK * CHURN_SOURCES, CHURN_CHUNK
    else:
        size = reply = STREAM_PAYLOAD
    return Inputs(
        requests=tuple(rng.randbytes(size) for _ in range(PAYLOAD_POOL)),
        replies=tuple(rng.randbytes(reply) for _ in range(PAYLOAD_POOL)),
        tag_prefix=prefix,
    )


def tag_keys(taint) -> frozenset:
    return frozenset(t.key() for t in taint.tags) if taint is not None else frozenset()


def score_reply(reply: TBytes, expected: bytes, segments) -> Optional[str]:
    """``None`` when ``reply`` is correct, else what was wrong.

    ``segments`` is a list of ``(length, tag_keys)``: each consecutive
    slice of the reply must carry exactly those tags - every expected tag
    present (sound) and no other (precise).
    """
    if reply.data != expected:
        return f"payload mismatch ({len(reply)} bytes, expected {len(expected)})"
    offset = 0
    for length, keys in segments:
        got = tag_keys(reply[offset : offset + length].overall_taint())
        if got != keys:
            return (
                f"bytes [{offset}:{offset + length}] carry {sorted(map(str, got))}, "
                f"expected {sorted(map(str, keys))}"
            )
        offset += length
    return None


class Exchange:
    """One leg of a socket workload: node1 asks, node2 answers.

    node1 (the driver thread) builds a request, writes it, reads the
    reply and runs ``app_process`` on it; node2 (its own server thread)
    reads the request, runs ``app_process`` on it, appends its own
    payload and replies.  ``op`` returns the latency of one such round
    trip and the verdict of :func:`score_reply` on the reply.
    """

    def __init__(self, workload: str, mode: Mode, inputs: Inputs):
        self.workload = workload
        self.inputs = inputs
        self.tracking = mode is Mode.DISTA
        self.cluster = Cluster(mode, name=f"bench-{workload}-{mode.value}")
        self.node1 = self.cluster.add_node("node1")
        self.node2 = self.cluster.add_node("node2")
        if workload == "taint-churn" and self.tracking:
            self.cluster.configure_sources([SOURCE_DESCRIPTOR])
        #: stream-taint's one fixed tag per side (``None``: untainted).
        self._taint1 = self._taint2 = None
        if workload == "stream-taint" and self.tracking:
            self._taint1 = self.node1.tree.taint_for_tag(self._tag(0, 1))
            self._taint2 = self.node2.tree.taint_for_tag(self._tag(0, 2))
        self._count = 0
        self._server_error: list = []
        self._thread: Optional[threading.Thread] = None
        self._client: Optional[Socket] = None

    # -- lifecycle ------------------------------------------------------ #

    def start(self) -> "Exchange":
        self.cluster.start()
        listener = ServerSocket(self.node2, PORT)
        listener.set_so_timeout(OP_TIMEOUT_S)
        self._client = Socket.connect(self.node1, (self.node2.ip, PORT))
        self._client.set_so_timeout(OP_TIMEOUT_S)
        connection = listener.accept()
        connection.set_so_timeout(OP_TIMEOUT_S)
        listener.close()
        self._thread = threading.Thread(
            target=self._serve, args=(connection,), name="node2-server", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> list:
        """Tear the leg down; returns the errors found while doing so."""
        errors = list(self._server_error)
        if self._client is not None:
            self._client.close()
        if self._thread is not None:
            self._thread.join(OP_TIMEOUT_S)
            if self._thread.is_alive():
                errors.append("node2 server thread did not stop")
        self.cluster.shutdown()
        return errors

    def counters(self, full: bool) -> dict:
        """Cumulative app bytes; with ``full`` also the Taint Map's bytes,
        the cluster's telemetry and its taint population."""
        out = {"app_bytes": self.cluster.wire_bytes(exclude_taint_map=True), "all_bytes": 0}
        if full:
            out["all_bytes"] = self.cluster.wire_bytes(exclude_taint_map=False)
            out["telemetry"] = self.cluster.telemetry_snapshot()
            out["global_taints"] = self.cluster.global_taint_count()
        return out

    # -- the exchange --------------------------------------------------- #

    def _tag(self, index: int, part) -> str:
        return f"{self.inputs.tag_prefix}:{index}:{part}"

    def _request(self, index: int) -> TBytes:
        payload = self.inputs.requests[index % PAYLOAD_POOL]
        if self._taint1 is not None:
            return TBytes.tainted(payload, self._taint1)
        if self.workload == "taint-churn":
            registry = self.node1.registry
            return TBytes.concat(
                [
                    registry.source(
                        SOURCE_DESCRIPTOR,
                        TBytes(payload[k * CHURN_CHUNK : (k + 1) * CHURN_CHUNK]),
                        tag_value=self._tag(index, k),
                    )
                    for k in range(CHURN_SOURCES)
                ]
            )
        return TBytes(payload)

    def _reply_part(self, index: int) -> TBytes:
        payload = self.inputs.replies[index % PAYLOAD_POOL]
        if self._taint2 is not None:
            return TBytes.tainted(payload, self._taint2)
        if self.workload == "taint-churn":
            return self.node2.registry.source(
                SOURCE_DESCRIPTOR, TBytes(payload), tag_value=self._tag(index, "r")
            )
        return TBytes(payload)

    def _segments(self, index: int) -> list:
        """Expected ``(length, tag_keys)`` slices of reply ``index``."""
        request = len(self.inputs.requests[0])
        reply = len(self.inputs.replies[0])
        if not self.tracking or self.workload == "stream-clean":
            return [(request + reply, frozenset())]
        n1, n2 = self.node1.tree.local_id, self.node2.tree.local_id
        if self.workload == "stream-taint":
            return [
                (request, frozenset({(self._tag(0, 1), n1)})),
                (reply, frozenset({(self._tag(0, 2), n2)})),
            ]
        return [
            (CHURN_CHUNK, frozenset({(self._tag(index, k), n1)}))
            for k in range(CHURN_SOURCES)
        ] + [(reply, frozenset({(self._tag(index, "r"), n2)}))]

    def _serve(self, connection: Socket) -> None:
        stream_in = connection.get_input_stream()
        stream_out = connection.get_output_stream()
        size = len(self.inputs.requests[0])
        index = 0
        try:
            while True:
                try:
                    request = stream_in.read_fully(size)
                except Exception:
                    if connection.closed or self._client.closed:
                        return  # node1 hung up: the leg is over
                    raise
                appmodel.app_process(request)
                stream_out.write(request + self._reply_part(index))
                index += 1
        except Exception as exc:  # reported by close(); node1 sees a timeout
            self._server_error.append(f"node2: {exc!r}")
        finally:
            connection.close()

    def op(self) -> tuple[float, Optional[str]]:
        index = self._count
        self._count += 1
        size = len(self.inputs.requests[0]) + len(self.inputs.replies[0])
        started = time.perf_counter()
        self._client.get_output_stream().write(self._request(index))
        reply = self._client.get_input_stream().read_fully(size)
        appmodel.app_process(reply)
        latency = time.perf_counter() - started
        expected = (
            self.inputs.requests[index % PAYLOAD_POOL]
            + self.inputs.replies[index % PAYLOAD_POOL]
        )
        return latency, score_reply(reply, expected, self._segments(index))


# --------------------------------------------------------------------- #
# sim-jobs
# --------------------------------------------------------------------- #


def _system(module: str) -> Callable:
    def run(mode: Mode):
        from importlib import import_module

        from repro.systems.common import SIM

        workload = import_module(f"repro.systems.{module}.workload")
        if mode is Mode.ORIGINAL:
            return workload.run_workload(Mode.ORIGINAL, None)
        return workload.run_workload(mode, SIM)

    return run


#: name -> (runner, the system's own result assertion on ``extras``).
SYSTEMS = {
    "zookeeper": (
        _system("zookeeper"),
        lambda x: x["leader"] == 1 and x["followers"] == [2, 3],
    ),
    "mapreduce": (
        _system("mapreduce"),
        lambda x: 3.0 < x["pi"] < 3.3
        and x["app_id"] == "application_1688000000000_0001",
    ),
    "activemq": (
        _system("activemq"),
        lambda x: x["message_id"] == "msg-1" and x["length"] == 64 * 1024,
    ),
    "rocketmq": (
        _system("rocketmq"),
        lambda x: x["broker"] == "broker-b"
        and x["offset"] == 0
        and x["length"] == 64 * 1024,
    ),
    "hbase": (
        _system("hbase"),
        lambda x: x["row"] == "zulu" and x["region"] == "bench,m",
    ),
}


def score_job(system: str, result, tracking: bool) -> Optional[str]:
    """``None`` when one sim job's result is correct, else what was wrong."""
    check = SYSTEMS[system][1]
    try:
        ok = check(result.extras)
    except (KeyError, TypeError) as exc:
        return f"{system}: malformed result {exc!r}"
    if not ok:
        return f"{system}: wrong result {result.extras!r}"
    if tracking:
        if not result.observed_tags <= result.generated_tags:
            return f"{system}: observed tags that no source generated"
        if not result.tainted_observations:
            return f"{system}: no sink saw a tainted value"
    return None


class SimJobs:
    """One leg of ``sim-jobs``: whole system runs in the seeded order.

    Every job boots and tears down its own cluster; the op latency is
    ``WorkloadResult.duration`` (the workload on a running deployment).
    """

    #: The set-up op (a leg's first) always runs this system, so set-up
    #: time does not depend on the seeded order.
    FIRST = "zookeeper"

    def __init__(self, mode: Mode, inputs: Inputs, keep_telemetry: bool):
        self.mode = mode
        self.inputs = inputs
        self.tracking = mode is Mode.DISTA
        self._count = -1
        self._app_bytes = self._all_bytes = 0
        #: Keep each job's telemetry for :meth:`counters` (traced legs).
        self.keep_telemetry = keep_telemetry
        self._telemetry: list = []
        self._taints: list = []

    def start(self) -> "SimJobs":
        return self

    def close(self) -> list:
        return []

    def counters(self, full: bool) -> dict:
        """Cumulative bytes over every job so far; with ``full`` also the
        merged telemetry and the median per-job taint population."""
        out = {"app_bytes": self._app_bytes, "all_bytes": self._all_bytes}
        if full:
            from statistics import median

            from repro.obs.registry import merge_snapshots

            out["telemetry"] = merge_snapshots(*self._telemetry)
            out["global_taints"] = median(self._taints) if self._taints else 0
        return out

    @property
    def next_system(self) -> str:
        if self._count < 0:
            return self.FIRST
        return self.inputs.systems[self._count % len(self.inputs.systems)]

    def op(self) -> tuple[float, Optional[str]]:
        system = self.next_system
        self._count += 1
        box: dict = {}

        def job() -> None:
            try:
                box["result"] = SYSTEMS[system][0](self.mode)
            except Exception as exc:
                box["error"] = f"{system}: {exc!r}"

        started = time.perf_counter()
        thread = threading.Thread(target=job, name=f"job-{system}", daemon=True)
        thread.start()
        thread.join(OP_TIMEOUT_S)
        if thread.is_alive():
            return time.perf_counter() - started, f"{system}: job did not finish"
        if "error" in box:
            return time.perf_counter() - started, box["error"]
        result = box["result"]
        self._app_bytes += result.wire_bytes
        # The kernel counter is a delta over the job's booted cluster and
        # includes the Taint Map's traffic.
        self._all_bytes += int(snapshot_total(result.telemetry, "sim_kernel_bytes_total"))
        self._taints.append(result.global_taints)
        if self.keep_telemetry:
            self._telemetry.append(result.telemetry)
        return result.duration, score_job(system, result, self.tracking)


def open_leg(workload: str, mode: Mode, inputs: Inputs, counted: bool = False):
    """A fresh, not yet started leg of ``workload`` in ``mode``;
    ``counted`` legs report full telemetry from ``counters``."""
    if workload == "sim-jobs":
        return SimJobs(mode, inputs, keep_telemetry=counted)
    return Exchange(workload, mode, inputs)
