"""ActiveMQ-style broker: a network of peer brokers over TCP.

Three peers (paper Table III cluster setting) connected pairwise.  A
message sent to any broker is enqueued locally and forwarded once to the
other peers (the "network of brokers" store-and-forward pattern), so a
consumer attached to a different broker still receives it — giving the
SDT taint a producer → broker → broker → consumer path.

The transport is OpenWire-flavoured: object-serialized commands over
plain ``java.net.Socket`` streams (Type-1 JNI methods underneath).
"""

from __future__ import annotations

import threading

from repro.jre.object_io import ObjectInputStream, ObjectOutputStream, register_serializable
from repro.jre.socket_api import ServerSocket, Socket
from repro.taint.values import TObj, TStr

BROKER_PORT = 61616

#: SDT source/sink descriptors (Table IV).
TEXT_MESSAGE_DESCRIPTOR = "org.apache.activemq.command.ActiveMQTextMessage#<init>"
CONSUMER_RECEIVE_DESCRIPTOR = "org.apache.activemq.MessageConsumer#receive"

#: SIM config file.
CONF_PATH = "/conf/activemq.xml"


def write_default_conf(fs) -> None:
    fs.write_file(CONF_PATH, "brokerName=amq-cluster\npersistent=false\n")


@register_serializable
class ActiveMQTextMessage(TObj):
    """The long text message of the distribution workload."""

    def __init__(self, message_id, text):
        self.message_id = message_id if isinstance(message_id, TStr) else TStr(message_id)
        self.text = text if isinstance(text, TStr) else TStr(text)


class _QueueStore:
    """Per-destination FIFO with blocking take."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._queues: dict[str, list] = {}

    def put(self, queue: str, message) -> None:
        with self._lock:
            self._queues.setdefault(queue, []).append(message)
            self._ready.notify_all()

    def take(self, queue: str, timeout: float):
        with self._lock:
            while not self._queues.get(queue):
                if not self._ready.wait(timeout):
                    return None
            return self._queues[queue].pop(0)


class Broker:
    """One peer of the broker network."""

    def __init__(self, node, broker_id: int, peer_ips: list):
        self.node = node
        self.broker_id = broker_id
        self.peer_ips = peer_ips
        self.store = _QueueStore()
        self._running = True
        self._peer_lock = threading.Lock()
        self._peer_streams: dict[str, ObjectOutputStream] = {}
        #: Every accepted and peer-forward connection, closed by stop()
        #: so no connection thread outlives the broker.
        self._sockets: list[Socket] = []
        # SIM source: the broker reads its configuration at startup.
        conf = node.files.read_text(CONF_PATH)
        self.broker_name = conf.split("\n")[0].split("=")[1]
        node.log.info("Starting broker {} ({})", self.broker_name, str(broker_id))
        self._server = ServerSocket(node, BROKER_PORT)
        node.spawn(self._accept_loop, name=f"broker{broker_id}-acceptor")

    # -- transport ------------------------------------------------------- #

    def _accept_loop(self) -> None:
        while self._running:
            try:
                socket = self._server.accept()
            except Exception:
                return
            with self._peer_lock:
                if not self._running:
                    socket.close()
                    return
                self._sockets.append(socket)
            self.node.spawn(self._serve, socket, name=f"broker{self.broker_id}-conn")

    def _serve(self, socket: Socket) -> None:
        ins = ObjectInputStream(socket.get_input_stream())
        outs = ObjectOutputStream(socket.get_output_stream())
        try:
            while self._running:
                command = ins.read_object()
                kind = command[0].value
                if kind == "send":
                    queue, message = command[1].value, command[2]
                    self._dispatch(queue, message, forward=True)
                    outs.write_object(["ok"])
                elif kind == "forward":
                    queue, message = command[1].value, command[2]
                    self._dispatch(queue, message, forward=False)
                elif kind == "receive":
                    queue, timeout = command[1].value, command[2].value
                    message = self.store.take(queue, timeout / 1000.0)
                    outs.write_object(["message", message])
                else:
                    outs.write_object(["error", f"unknown command {kind}"])
        except Exception:
            socket.close()

    # -- store and forward ---------------------------------------------------- #

    def _dispatch(self, queue: str, message, forward: bool) -> None:
        self.store.put(queue, message)
        self.node.log.info(
            "Broker {} enqueued message {} on {}",
            str(self.broker_id),
            message.message_id,
            queue,
        )
        if forward:
            for ip in self.peer_ips:
                self._forward(ip, queue, message)

    def _forward(self, ip: str, queue: str, message) -> None:
        with self._peer_lock:
            stream = self._peer_streams.get(ip)
            if stream is None:
                socket = Socket.connect(self.node, (ip, BROKER_PORT))
                self._sockets.append(socket)
                stream = ObjectOutputStream(socket.get_output_stream())
                self._peer_streams[ip] = stream
        stream.write_object(["forward", TStr(queue), message])

    def stop(self) -> None:
        self._server.close()
        with self._peer_lock:
            self._running = False
            sockets, self._sockets = self._sockets, []
            self._peer_streams.clear()
        for socket in sockets:
            socket.close()
