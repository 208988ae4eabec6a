"""Split training over framed messages: classic and gradient-free modes.

Classic mode is the sequential structure: the client trains its condition
encoder from gradients the server returns each iteration (the server also
returns its noise estimate, since generation happens client-side).
Gradient-free mode freezes every client module (the pretrained encoder
replaces the condition encoder), so clients stream packets through a
bounded queue and nothing flows downstream; the server keeps no copy of
its noise estimates.

Packets cross the boundary only as framed bytes. There is one client loop
and one serve loop: each client sends HELLO, one packet per iteration and
DONE in-band over its byte channel, and the server reads every channel
from one inbox, counts and captures each uplink frame, trains on it and
routes any reply back to the channel whose HELLO named that client. A
channel is an in-process queue pair or a TCP connection with one reader
thread; the session ends when every client has sent DONE, so the byte
ledger measures exactly what a real deployment would send.
The clock model is simulated: per-iteration client/server compute costs
plus transfer time at a configured rate, from which the ledger derives
both the sequential total (sum of stages) and the pipelined total
(makespan of the client/link/server pipeline).
"""

from __future__ import annotations

import contextlib
import queue
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tt
from .defenses import DefenseConfig, postprocess_features, preprocess_batch
from .diffusion import NoiseSchedule, forward_diffuse, training_loss
from .models import (ControlBranch, NoiseConfoundingActivation, PromptEncoder,
                     ToyAutoencoder, ToyUNet, noise_confound)
from .optim import AdamW
from .privacy import PrivacyParams, sample_private_timestep
from .rng import RngState
from .tensor import Tensor
from .wire import (CTRL_DONE, CTRL_HELLO, ControlMessage, FeaturePacket, GradientPacket,
                   WireError, frame_message, parse_message, read_frame, tensor_payload_bytes)


class TransportError(RuntimeError):
    pass


@dataclass
class SimClock:
    """Per-iteration cost constants for the simulated time model."""

    t_client: float = 1.0
    t_server: float = 1.0
    rate: float = 1e6  # bytes per clock unit


@dataclass
class IterationSample:
    client_id: int
    t_client: float
    t_server: float
    bytes_up: int
    bytes_down: int


class TransmissionLedger:
    """Exact on-the-wire byte accounting plus per-iteration timing samples."""

    def __init__(self):
        self.bytes_up = 0
        self.bytes_down = 0
        self.payload_bytes_up = 0
        self.payload_bytes_down = 0
        self.packets = 0
        self.samples: list[IterationSample] = []
        self._lock = threading.Lock()

    def add(self, direction: str, framed_bytes: int, payload_bytes: int) -> None:
        with self._lock:
            if direction == "up":
                self.bytes_up += framed_bytes
                self.payload_bytes_up += payload_bytes
            elif direction == "down":
                self.bytes_down += framed_bytes
                self.payload_bytes_down += payload_bytes
            else:
                raise ValueError(f"direction must be up/down, got {direction!r}")
            self.packets += 1

    def add_sample(self, sample: IterationSample) -> None:
        with self._lock:
            self.samples.append(sample)

    def total_bytes(self) -> int:
        return self.bytes_up + self.bytes_down

    def t_total_sequential(self, clock: SimClock) -> float:
        """Lock-step total: every stage of every iteration strictly in series."""
        return sum(
            s.t_client + s.t_server + (s.bytes_up + s.bytes_down) / clock.rate
            for s in self.samples
        )

    def t_total_pipelined(self, clock: SimClock) -> float:
        """Makespan of the client -> link -> server pipeline over the samples."""
        per_client: dict[int, int] = {}
        ready = []
        for s in self.samples:
            k = per_client.get(s.client_id, 0) + 1
            per_client[s.client_id] = k
            ready.append((k * s.t_client, s))
        ready.sort(key=lambda r: (r[0], r[1].client_id))
        link_free = 0.0
        server_free = 0.0
        for r, s in ready:
            link_done = max(link_free, r) + s.bytes_up / clock.rate
            link_free = link_done
            server_free = max(server_free, link_done) + s.t_server
        return server_free

    def to_dict(self, clock: SimClock) -> dict:
        return {
            "bytes_up": self.bytes_up,
            "bytes_down": self.bytes_down,
            "packets": self.packets,
            "t_total_sequential": self.t_total_sequential(clock),
            "t_total_pipelined": self.t_total_pipelined(clock),
            "payload_bytes_up": self.payload_bytes_up,
            "payload_bytes_down": self.payload_bytes_down,
        }


def account_transmission(ledger: TransmissionLedger, msg, direction: str = "up") -> None:
    """Add one message's exact framed size to the ledger."""
    ledger.add(direction, len(frame_message(msg)), tensor_payload_bytes(msg))


# ---------------------------------------------------------------------------
# world and workers


@dataclass
class ClientDataset:
    images: np.ndarray
    conds: np.ndarray
    prompts: list[list[str]]


@dataclass
class SplitWorld:
    """Everything both parties hold before the partition is enforced."""

    sched: NoiseSchedule
    variant: str
    privacy: PrivacyParams
    defense: DefenseConfig
    prompt_encoder: PromptEncoder
    autoencoder: ToyAutoencoder
    unet: ToyUNet
    branch: ControlBranch
    act: NoiseConfoundingActivation | None
    datasets: list[ClientDataset]


@dataclass
class ProtocolConfig:
    mode: str = "gradient_free"  # | "classic"
    clients: int = 1
    iterations: int = 100  # per client
    batch: int = 4
    seed: int = 0
    transport: str = "in_process"  # | "tcp"
    queue_depth: int = 8
    server_lr: float = 1e-3
    client_lr: float = 1e-3
    weight_decay: float = 0.0
    capture_path: str | None = None
    clock: SimClock = field(default_factory=SimClock)

    def validate(self):
        if self.mode not in ("classic", "gradient_free"):
            raise ValueError(f"mode must be classic|gradient_free, got {self.mode!r}")
        if self.transport not in ("in_process", "tcp"):
            raise ValueError(f"transport must be in_process|tcp, got {self.transport!r}")
        if self.clients < 1 or self.iterations < 0 or self.batch < 1:
            raise ValueError("clients/iterations/batch out of range")


@dataclass
class ClientFeatures:
    """What the client pipeline computes for one batch."""

    h1: np.ndarray  # denoiser enc_block_1 output
    s: Tensor  # condition-path feature, still in the graph of the condition encoder
    zt: np.ndarray
    n_hat: np.ndarray
    prompt_feat: np.ndarray


def client_features(world: SplitWorld, images, conds, prompts, t: int, drop: RngState,
                    noise: RngState, cond_encoder, act) -> ClientFeatures:
    """The client pipeline: encode the image, diffuse it to timestep `t`, run
    enc_block_1, encode the condition, add it to z_t, confound with `act`.

    `cond_encoder(x, rng, training)` is the condition encoder the caller
    runs; `drop` feeds dropout in both encoders and `noise` the diffusion.
    """
    z0 = world.autoencoder.encode(Tensor(images), drop, training=True)
    state = forward_diffuse(z0.data, t, world.sched, noise, world.variant)
    prompt_feat = world.prompt_encoder.encode(prompts)
    h1 = world.unet.encode_block1(Tensor(state.zt), t, Tensor(prompt_feat))
    s = tt.add(Tensor(state.zt), cond_encoder(Tensor(conds), drop, training=True))
    if act is not None:
        s = noise_confound(s, act)
    return ClientFeatures(h1.data, s, state.zt, state.n_hat, prompt_feat)


class ClientWorker:
    """Client-side state: frozen encoders, the condition encoder, secrets."""

    def __init__(self, client_id: int, world: SplitWorld, cfg: ProtocolConfig, rng: RngState):
        self.client_id = client_id
        self.world = world
        self.cfg = cfg
        self.data = world.datasets[client_id]
        self.rng_order = rng.split("order")
        self.rng_t = rng.split("timestep")
        self.rng_noise = rng.split("noise")
        self.rng_drop = rng.split("dropout")
        self.rng_defense = rng.split("defense")
        self.trainable = cfg.mode == "classic" and not isinstance(
            world.branch.condition_encoder, ToyAutoencoder
        )
        if self.trainable:
            # classic split learning: each client trains its own copy of the condition encoder
            self.cond_encoder = world.branch.condition_encoder.clone()
            self.opt = AdamW(
                list(self.cond_encoder.named_parameters().values()),
                lr=cfg.client_lr, weight_decay=cfg.weight_decay,
            )
        else:
            self.cond_encoder = world.autoencoder.encode  # the shared frozen encoder stands in
            self.opt = None
        self._pending: Tensor | None = None

    def forward_step(self, iteration: int) -> FeaturePacket:
        w = self.world
        idx = np.asarray(self.rng_order.integers(0, len(self.data.images) - 1, (self.cfg.batch,)))
        prompts = [self.data.prompts[i] for i in idx]
        images, conds = preprocess_batch(self.data.images[idx], self.data.conds[idx],
                                         w.defense, self.rng_defense)
        t = sample_private_timestep(w.privacy, self.rng_t)
        f = client_features(w, images, conds, prompts, t, self.rng_drop, self.rng_noise,
                            self.cond_encoder, w.act)
        self._pending = f.s if self.trainable else None
        feat_unet, feat_control = postprocess_features(
            f.h1, f.s.data, w.defense, w.privacy.delta, w.privacy.alpha_sens, self.rng_defense
        )
        return FeaturePacket(
            client_id=self.client_id,
            iteration=iteration,
            timestep=t,
            feat_unet=feat_unet,
            feat_control=feat_control,
            label_noise=f.n_hat,
            prompt_feat=None if w.defense.hides_prompt else f.prompt_feat,
        )

    def apply_gradient(self, gpkt: GradientPacket) -> None:
        if self.opt is None or self._pending is None:
            return
        self.opt.zero_grad()
        tt.backward(self._pending, seed_grad=gpkt.grad_control)
        self.opt.step()
        self._pending = None


class ServerWorker:
    """Server-side state: control branch remainder, frozen denoiser, optimizer."""

    def __init__(self, world: SplitWorld, cfg: ProtocolConfig):
        self.world = world
        self.cfg = cfg
        self.opt = AdamW(
            list(world.branch.server_parameters().values()),
            lr=cfg.server_lr, weight_decay=cfg.weight_decay,
        )
        self.loss_history: list[float] = []

    def train_step(self, pkt: FeaturePacket) -> tuple[float, GradientPacket | None]:
        w = self.world
        if pkt.feat_unet.shape != pkt.feat_control.shape or pkt.feat_unet.shape != pkt.label_noise.shape:
            raise ValueError(
                f"packet shape mismatch: feat_unet {pkt.feat_unet.shape}, "
                f"feat_control {pkt.feat_control.shape}, label {pkt.label_noise.shape}"
            )
        classic = self.cfg.mode == "classic"
        s = Tensor(pkt.feat_control, requires_grad=classic)
        h1 = Tensor(pkt.feat_unet)
        prompt = None if pkt.prompt_feat is None else Tensor(pkt.prompt_feat)
        taps = w.branch.server_forward(s, pkt.timestep, prompt)
        n = w.unet.server_forward(h1, pkt.timestep, prompt, taps)
        loss = training_loss(pkt.label_noise, n)
        loss_val = loss.item()
        if not np.isfinite(loss_val):
            raise FloatingPointError(
                f"non-finite training loss at client {pkt.client_id} iteration {pkt.iteration}"
            )
        self.opt.zero_grad()
        loss.backward()
        self.opt.step()
        self.loss_history.append(loss_val)
        if classic:
            return loss_val, GradientPacket(
                iteration=pkt.iteration, grad_control=s.grad.copy(), n_pred=n.data.copy()
            )
        return loss_val, None


@dataclass
class SplitResult:
    ledger: TransmissionLedger
    loss_history: list[float]
    server: ServerWorker
    clients: list[ClientWorker]
    capture_path: str | None


def _validate(world: SplitWorld, cfg: ProtocolConfig) -> None:
    cfg.validate()
    if cfg.mode == "gradient_free" and not isinstance(world.branch.condition_encoder, ToyAutoencoder):
        raise ValueError("gradient_free mode requires the pretrained encoder as condition encoder")


# ---------------------------------------------------------------------------
# byte channels, the client loop and the serve loop


CONNECT_DEADLINE_S = 30.0  # a client retries its connect until this much time has passed
IO_TIMEOUT_S = 10.0  # a client gives up on a server that stays silent this long
JOIN_TIMEOUT_S = 10.0  # teardown waits this long for each thread it started


class _Inbox:
    """The server's bounded queue of (reply, frame) pairs from every channel.

    `reply(frame)` sends bytes back down the channel the frame came in on;
    a frame of None marks the end of that channel and an exception its
    failure. Closing the inbox releases every producer blocked on it.
    """

    def __init__(self, depth: int):
        self._q: queue.Queue = queue.Queue(maxsize=depth)
        self._closed = threading.Event()

    def put(self, reply, frame) -> bool:
        """False once the inbox is closed: nobody reads it any more."""
        while not self._closed.is_set():
            try:
                self._q.put((reply, frame), timeout=0.05)
                return True
            except queue.Full:
                pass
        return False

    def get(self):
        return self._q.get()

    def close(self) -> None:
        self._closed.set()


class _QueueChannel:
    """In-process channel: frames go into the server's inbox, replies come
    back through a queue of the channel's own (None once the server hangs up)."""

    def __init__(self, inbox: _Inbox):
        self.inbox = inbox
        self.replies: queue.Queue = queue.Queue()
        self.reply = self.replies.put  # one object, so the server can tell channels apart

    def send(self, frame: bytes) -> None:
        if not self.inbox.put(self.reply, frame):
            raise TransportError("server closed the channel")

    def recv(self) -> bytes | None:
        return self.replies.get()

    def close(self) -> None:
        self.inbox.put(self.reply, None)


class _SocketChannel:
    """The client end of a TCP connection."""

    def __init__(self, sock: socket.socket):
        self.sock = sock

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def recv(self) -> bytes | None:
        return read_frame(self.sock)

    def close(self) -> None:
        self.sock.close()


def _client_loop(client: ClientWorker, cfg: ProtocolConfig, channel) -> None:
    """HELLO, one packet per iteration (waiting for its gradient in classic
    mode), DONE; the channel is closed however the loop ends."""
    try:
        channel.send(frame_message(ControlMessage(code=CTRL_HELLO, client_id=client.client_id)))
        for it in range(cfg.iterations):
            channel.send(frame_message(client.forward_step(it)))
            if cfg.mode == "classic":
                frame = channel.recv()
                if frame is None:
                    raise TransportError("server closed the channel mid-session")
                gpkt = parse_message(frame)
                if not isinstance(gpkt, GradientPacket):
                    raise TransportError(f"expected GradientPacket, got {type(gpkt).__name__}")
                client.apply_gradient(gpkt)
        channel.send(frame_message(ControlMessage(code=CTRL_DONE, client_id=client.client_id)))
    finally:
        channel.close()


def _serve(server: ServerWorker, cfg: ProtocolConfig, inbox: _Inbox,
           ledger: TransmissionLedger, capture) -> None:
    """Train on every uplink frame until `cfg.clients` clients have sent DONE."""
    routes: dict[int, object] = {}  # client id -> reply of the channel its HELLO came in on
    done: set[int] = set()
    while len(done) < cfg.clients:
        reply, frame = inbox.get()
        if isinstance(frame, BaseException):
            raise frame
        if frame is None:  # a channel ended
            cid = next((c for c, r in routes.items() if r is reply), None)
            if cid not in done:
                raise TransportError(f"client {cid} closed its channel before DONE")
            continue
        msg = parse_message(frame)
        if isinstance(msg, ControlMessage):
            if msg.code == CTRL_HELLO and msg.client_id not in routes:
                routes[msg.client_id] = reply
            elif msg.code == CTRL_DONE and routes.get(msg.client_id) is reply:
                done.add(msg.client_id)
            else:
                raise TransportError(f"unexpected control message {msg}")
            continue
        if not isinstance(msg, FeaturePacket):
            raise TransportError(f"server received a {type(msg).__name__}")
        if routes.get(msg.client_id) is not reply:
            raise TransportError(f"packet from unregistered client id {msg.client_id}")
        ledger.add("up", len(frame), tensor_payload_bytes(msg))
        if capture is not None:
            capture.write(frame)
        _, gpkt = server.train_step(msg)
        bytes_down = 0
        if gpkt is not None:
            framed = frame_message(gpkt)
            bytes_down = len(framed)
            ledger.add("down", bytes_down, tensor_payload_bytes(gpkt))
            reply(framed)
        ledger.add_sample(IterationSample(
            client_id=msg.client_id,
            t_client=cfg.clock.t_client,
            t_server=cfg.clock.t_server,
            bytes_up=len(frame),
            bytes_down=bytes_down,
        ))


def _serve_queues(server, cfg, channels: list[_QueueChannel], inbox: _Inbox, ledger, capture) -> None:
    try:
        _serve(server, cfg, inbox, ledger, capture)
    finally:
        inbox.close()
        for ch in channels:
            ch.reply(None)  # wakes a client waiting for its gradient


def _read_into(inbox: _Inbox, conn: socket.socket) -> None:
    """Reader thread of one connection: every frame into the inbox, then
    the end of the connection or its failure."""
    def reply(frame: bytes) -> None:
        try:
            conn.sendall(frame)
        except OSError as exc:
            raise TransportError(f"connection to the client lost: {exc}") from exc

    try:
        while True:
            frame = read_frame(conn)
            if not inbox.put(reply, frame) or frame is None:
                return
    except WireError as exc:
        inbox.put(reply, exc)
    except OSError as exc:
        inbox.put(reply, TransportError(f"connection to the client lost: {exc}"))


def _serve_connections(server, cfg, conns: list[socket.socket], ledger, capture) -> None:
    """The serve loop over accepted connections, one reader thread each. On
    the way out each socket is shut down, every reader joined, then each
    socket closed, so no reader ever reads a closed socket."""
    inbox = _Inbox(cfg.queue_depth)
    readers = [threading.Thread(target=_read_into, args=(inbox, conn), daemon=True,
                                name=f"splitstream-reader-{i}")
               for i, conn in enumerate(conns)]
    for r in readers:
        r.start()
    try:
        _serve(server, cfg, inbox, ledger, capture)
    finally:
        inbox.close()
        for conn in conns:
            with contextlib.suppress(OSError):  # the peer may be gone already
                conn.shutdown(socket.SHUT_RDWR)
        try:
            _join(readers)
        finally:
            for conn in conns:
                conn.close()


def _run_clients(clients: list[ClientWorker], cfg: ProtocolConfig, channels, serve) -> None:
    """Each client loop in a thread of its own while `serve()` runs; `serve`
    hangs up on every channel however it ends. A client's own failure
    becomes the cause of the transport error it led to."""
    errors: list[BaseException] = []

    def run(client, channel):
        try:
            _client_loop(client, cfg, channel)
        except Exception as exc:  # raised in the caller's thread once all are joined
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(c, ch), daemon=True,
                                name=f"splitstream-client-{c.client_id}")
               for c, ch in zip(clients, channels)]
    for t in threads:
        t.start()
    failure = None
    try:
        serve()
    except BaseException as exc:
        failure = exc
    _join(threads)
    if isinstance(failure, TransportError) and errors:
        raise failure from errors[0]
    if failure is not None:
        raise failure


def _join(threads: list[threading.Thread]) -> None:
    for t in threads:
        t.join(JOIN_TIMEOUT_S)
    stuck = [t.name for t in threads if t.is_alive()]
    if stuck:
        raise TransportError(f"{stuck} still running {JOIN_TIMEOUT_S:.0f} s after the session")


def _connect(host: str, port: int) -> socket.socket:
    deadline = time.monotonic() + CONNECT_DEADLINE_S
    while True:
        try:
            return socket.create_connection((host, port), timeout=IO_TIMEOUT_S)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise TransportError(
                    f"could not connect to {host}:{port} within {CONNECT_DEADLINE_S:.0f} s"
                ) from exc
            time.sleep(0.05)


def _capture(cfg: ProtocolConfig):
    return open(cfg.capture_path, "wb") if cfg.capture_path else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# sessions


def run_split_training(world: SplitWorld, cfg: ProtocolConfig) -> SplitResult:
    """Drive the whole session; returns the ledger and trained server state.

    In-process, each client writes its frames into the server's inbox; over
    TCP, each client gets a loopback connection on an ephemeral port.
    """
    _validate(world, cfg)
    server = ServerWorker(world, cfg)
    root = RngState(cfg.seed)
    clients = [
        ClientWorker(i, world, cfg, root.split(f"client-{i}"))
        for i in range(cfg.clients)
    ]
    ledger = TransmissionLedger()
    with _capture(cfg) as capture:
        if cfg.transport == "in_process":
            inbox = _Inbox(cfg.queue_depth)
            channels = [_QueueChannel(inbox) for _ in clients]
            _run_clients(clients, cfg, channels,
                         lambda: _serve_queues(server, cfg, channels, inbox, ledger, capture))
        else:
            with socket.create_server(("127.0.0.1", 0), backlog=cfg.clients) as lsock:
                socks = [_connect(*lsock.getsockname()) for _ in clients]
                conns = [lsock.accept()[0] for _ in clients]
            _run_clients(clients, cfg, [_SocketChannel(s) for s in socks],
                         lambda: _serve_connections(server, cfg, conns, ledger, capture))
    return SplitResult(ledger, server.loss_history, server, clients, cfg.capture_path)


def run_server_role(world: SplitWorld, cfg: ProtocolConfig, host: str, port: int) -> SplitResult:
    """Serve `cfg.clients` remote clients until each signals done.

    Both endpoints rebuild the same world from the shared config; only
    framed messages cross the wire.
    """
    _validate(world, cfg)
    server = ServerWorker(world, cfg)
    ledger = TransmissionLedger()
    with socket.create_server((host, port), backlog=cfg.clients) as lsock:
        conns = [lsock.accept()[0] for _ in range(cfg.clients)]
    with _capture(cfg) as capture:
        _serve_connections(server, cfg, conns, ledger, capture)
    return SplitResult(ledger, server.loss_history, server, [], cfg.capture_path)


def run_client_role(world: SplitWorld, cfg: ProtocolConfig, client_id: int,
                    host: str, port: int) -> None:
    """One remote client: stream packets, apply gradients in classic mode."""
    _validate(world, cfg)
    client = ClientWorker(client_id, world, cfg, RngState(cfg.seed).split(f"client-{client_id}"))
    _client_loop(client, cfg, _SocketChannel(_connect(host, port)))
