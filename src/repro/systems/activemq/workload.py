"""The ActiveMQ evaluation workload: long-text message distribution.

Three peer brokers (Table III); the producer publishes a long text
message to broker 1 and the consumer, attached to broker 3, receives the
store-and-forwarded copy — so the message (and its taint) crosses two
broker hops.
"""

from __future__ import annotations

from repro.core.config import DisTAConfig, TaintSpec
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.systems import common
from repro.systems.common import SystemInfo, WorkloadResult, run_system_workload, sim_spec
from repro.systems.activemq.broker import (
    CONSUMER_RECEIVE_DESCRIPTOR,
    TEXT_MESSAGE_DESCRIPTOR,
    ActiveMQTextMessage,
    Broker,
    write_default_conf,
)
from repro.systems.activemq.client import MessageConsumer, MessageProducer
from repro.taint.values import TStr

SYSTEM = SystemInfo(
    name="ActiveMQ",
    kind="Message middleware",
    protocols=("JRE TCP", "UDP", "NIO", "HTTP"),
    workload="Long text message distribution",
    cluster_setting="3 peer brokers (+ client)",
)

QUEUE = "benchmark.queue"
#: The paper controls ~10 MB of data; scaled for the simulated stack.
MESSAGE_LENGTH = 64 * 1024


def sdt_spec() -> TaintSpec:
    return TaintSpec(sources=[TEXT_MESSAGE_DESCRIPTOR], sinks=[CONSUMER_RECEIVE_DESCRIPTOR])


def deploy_and_distribute(cluster: Cluster, message_length: int = MESSAGE_LENGTH) -> dict:
    nodes = [cluster.add_node(f"amq{i}") for i in (1, 2, 3)]
    client_node = cluster.add_node("client")
    write_default_conf(cluster.fs)
    ips = [n.ip for n in nodes]
    brokers = [
        Broker(node, i + 1, [ip for ip in ips if ip != node.ip])
        for i, node in enumerate(nodes)
    ]
    producer = MessageProducer(client_node, ips[0], QUEUE)
    consumer = MessageConsumer(client_node, ips[2], QUEUE)
    try:
        # The long text is read from data files (SIM sources fire here).
        common.seed_data_files(cluster.fs, "/data/outbox", 32, message_length // 32)
        body = common.read_data_files(client_node, "/data/outbox").decode("utf-8")[:message_length]
        # The SDT source point: the long-text message variable.
        message = client_node.registry.source(
            TEXT_MESSAGE_DESCRIPTOR,
            ActiveMQTextMessage(TStr("msg-1"), body),
            tag_value="text-message-1",
        )
        producer.send(message)
        received = consumer.receive(timeout_ms=15000)
        assert received is not None, "consumer never received the message"
        assert received.text.value == body.value
        return {"message_id": received.message_id.value, "length": len(received.text)}
    finally:
        producer.close()
        consumer.close()
        for broker in brokers:
            broker.stop()


def run_workload(
    mode: Mode, scenario: str | None = None, config: DisTAConfig | None = None
) -> WorkloadResult:
    return run_system_workload(
        "ActiveMQ", mode, scenario, sdt_spec, deploy_and_distribute, config
    )
