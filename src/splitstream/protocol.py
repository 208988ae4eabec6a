"""Split training over framed messages: classic and gradient-free modes.

Classic mode is the sequential structure: each client trains its own copy
of a scratch condition encoder from the gradient the server returns each
iteration, and waits for it. Gradient-free mode freezes every client module
(the pretrained encoder replaces the condition encoder), so clients stream
packets ahead of a busy server, as far as the socket buffer lets them, and
nothing flows downstream. The mode alone decides which encoder the client
runs.

Packets cross the boundary only as framed bytes over sockets: one end of a
socketpair per client in-process, a loopback TCP connection per client
otherwise. There is one client loop and one serve loop: each client sends
HELLO, one packet per iteration and DONE in-band over its socket, and one
serve thread waits on every connection, reads one whole frame from each
ready one, counts and captures each uplink frame, trains on it and sends
any reply back down the connection whose HELLO named that client. The
session ends when every client has sent DONE, so the byte ledger measures
exactly what a real deployment would send.
A session records only measured bytes, one ledger sample per uplink
frame. Time is a model the caller applies when it reports the ledger: a
`SimClock`'s per-iteration client/server costs and link rate give the
sequential total (sum of stages) and the pipelined total (makespan of the
client/link/server pipeline); reports use `SimClock()`'s defaults.
"""

from __future__ import annotations

import contextlib
import selectors
import socket
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .config import ProtocolSection
from .data import ConditionMaps
from .defenses import DefenseConfig, postprocess_features, preprocess_batch
from .diffusion import NoiseSchedule, forward_diffuse, training_loss
from .models import (D_PROMPT, LATENT_SHAPE, MAX_PROMPT_LEN, CondEncoder, ControlBranch,
                     NoiseConfoundingActivation, PromptEncoder, ToyAutoencoder, ToyUNet,
                     noise_confound)
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
    bytes_up: int  # framed
    bytes_down: int  # framed; 0 when nothing went back down
    payload_up: int = 0  # tensor bytes inside the frame
    payload_down: int = 0


class TransmissionLedger:
    """Exact on-the-wire byte accounting: one sample per uplink packet, and
    every total summed from the samples."""

    def __init__(self):
        self.samples: list[IterationSample] = []

    @property
    def bytes_up(self) -> int:
        return sum(s.bytes_up for s in self.samples)

    @property
    def bytes_down(self) -> int:
        return sum(s.bytes_down for s in self.samples)

    @property
    def payload_bytes_up(self) -> int:
        return sum(s.payload_up for s in self.samples)

    @property
    def payload_bytes_down(self) -> int:
        return sum(s.payload_down for s in self.samples)

    @property
    def packets(self) -> int:
        """Frames counted both ways: each uplink packet and each reply."""
        return sum(1 + (s.bytes_down > 0) for s in self.samples)

    def total_bytes(self) -> int:
        return self.bytes_up + self.bytes_down

    def t_total_sequential(self, clock: SimClock) -> float:
        """Lock-step total: every stage of every iteration strictly in series."""
        return sum(
            clock.t_client + clock.t_server + (s.bytes_up + s.bytes_down) / clock.rate
            for s in self.samples
        )

    def t_total_pipelined(self, clock: SimClock) -> float:
        """Makespan of the client -> link -> server pipeline over the samples."""
        per_client: dict[int, int] = {}
        ready = []
        for s in self.samples:
            k = per_client.get(s.client_id, 0) + 1
            per_client[s.client_id] = k
            ready.append((k * clock.t_client, s))
        ready.sort(key=lambda r: (r[0], r[1].client_id))
        link_free = 0.0
        server_free = 0.0
        for r, s in ready:
            link_done = max(link_free, r) + s.bytes_up / clock.rate
            link_free = link_done
            server_free = max(server_free, link_done) + clock.t_server
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


# ---------------------------------------------------------------------------
# world and workers


@dataclass
class ClientDataset:
    images: np.ndarray
    conds: ConditionMaps  # indexed rows come back as the encoder's float32 input
    prompts: list[list[str]]


@dataclass
class SplitWorld:
    """Everything both parties hold before the partition is enforced.

    The client's condition encoder is `cond_encoder`: in a classic world a
    scratch encoder each client trains a copy of, in a gradient-free world
    the frozen pretrained `autoencoder.E`. The control `branch` is the
    server's alone.
    """

    sched: NoiseSchedule
    variant: str
    privacy: PrivacyParams
    defense: DefenseConfig
    prompt_encoder: PromptEncoder
    autoencoder: ToyAutoencoder
    cond_encoder: CondEncoder
    unet: ToyUNet
    branch: ControlBranch
    act: NoiseConfoundingActivation | None
    datasets: list[ClientDataset]


@dataclass
class ProtocolConfig(ProtocolSection):
    """The `[protocol]` section as declared, defaults included (500
    iterations per client), plus the client RNGs' seed and the capture file."""

    seed: int = 0
    capture_path: str | None = None


@dataclass
class ClientFeatures:
    """What the client pipeline computes for one batch."""

    h1: np.ndarray  # denoiser enc_block_1 output
    s: Tensor  # condition-path feature, still in the graph of the condition encoder
    zt: np.ndarray
    n_hat: np.ndarray


# Rows a whole-split pass runs at once. Chunks are even (`row_chunks`), so a
# batch of more than CHUNK_ROWS rows runs in chunks of at least CHUNK_ROWS / 2.
# From 16 rows up every conv of the client pipeline takes the formulation and
# column layout it takes for any larger batch (E's stride-2 32 -> 4 conv
# unfolds channels-last at 14 rows or fewer, enc_block_1's 32 -> 4 conv takes
# kn2row from 16), so each output row is bit-equal to a whole-batch pass; 32
# is the smallest value that keeps every chunk at 16 rows or more. At 32 rows
# the attacker's pass over reference.ini's 256 public samples (encodings and
# features, its condition rows materialized chunk by chunk) peaks at 5.4 MB of
# traced allocations, against 10.2 MB at 64 and 39.4 MB in one chunk, and its
# batch size no longer sets it.
CHUNK_ROWS = 32


def row_chunks(n: int) -> list[slice]:
    """`n` rows as ceil(n / CHUNK_ROWS) consecutive slices (one when n <=
    CHUNK_ROWS) whose sizes differ by at most one."""
    k = max(1, -(-n // CHUNK_ROWS))
    edges = [i * n // k for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _rows(parts: list[np.ndarray]) -> np.ndarray:
    """Chunk outputs as one batch; a single chunk is passed through as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def encode_rows(encoder, x: np.ndarray, rng: RngState, training: bool) -> np.ndarray:
    """`encoder(x, rng, training)` over the `row_chunks` of x, as one array:
    bit-equal to a single call on the whole batch, `rng` read in row order."""
    return _rows([encoder(Tensor(x[c]), rng, training).data for c in row_chunks(len(x))])


@dataclass
class ClientEncodings:
    """A batch's inputs as the client pipeline encodes them, before any
    timestep: they depend on the encoders and the dropout stream alone."""

    z0: np.ndarray  # image latents
    conds: list[Tensor]  # condition encodings, one per row chunk, in the encoder's graph


def encode_inputs(image_encoder, cond_encoder, images, conds, drop: RngState) -> ClientEncodings:
    """The client pipeline's first stage: `image_encoder` over the images,
    then `cond_encoder(x, rng, training)` over the conditions, each in
    `row_chunks` and each with dropout from `drop`, read in that order."""
    z0 = encode_rows(image_encoder, images, drop, training=True)
    return ClientEncodings(z0, [cond_encoder(Tensor(conds[c]), drop, training=True)
                                for c in row_chunks(len(conds))])


def features_at(world: SplitWorld, enc: ClientEncodings, prompts, t: int, noise: RngState,
                act) -> ClientFeatures:
    """The client pipeline's second stage: diffuse the image latents to
    timestep `t` with `noise`, run enc_block_1 on z_t and the encoded prompts,
    add the condition encodings to z_t, confound with `act`. enc_block_1
    walks the batch in `row_chunks`, and the chunks of `s` are joined by
    `tensor.concat`, in the graph of the condition encoder."""
    chunks = row_chunks(len(enc.z0))
    state = forward_diffuse(enc.z0, t, world.sched, noise, world.variant)
    h1 = _rows([world.unet.enc_block_1(Tensor(state.zt[c]), t,
                                       Tensor(world.prompt_encoder.encode(prompts[c]))).data
                for c in chunks])
    parts = []
    for c, cond in zip(chunks, enc.conds):
        s = tt.add(Tensor(state.zt[c]), cond)
        parts.append(s if act is None else noise_confound(s, act))
    s = parts[0] if len(parts) == 1 else tt.concat(parts, 0)
    return ClientFeatures(h1, s, state.zt, state.n_hat)


def client_features(world: SplitWorld, images, conds, prompts, t: int, drop: RngState,
                    noise: RngState, cond_encoder, act) -> ClientFeatures:
    """The client pipeline: encode the image and the condition
    (`encode_inputs`), then diffuse the image to timestep `t` and build the
    features from it (`features_at`).

    `cond_encoder(x, rng, training)` is the condition encoder the caller
    runs; `drop` feeds dropout in both encoders and `noise` the diffusion.
    Each stage walks the batch in `row_chunks`, all chunks before the next
    stage, so `drop` is read in the order a whole-batch pass reads it and
    every output is bit-equal to that pass's.
    """
    enc = encode_inputs(world.autoencoder.E, cond_encoder, images, conds, drop)
    return features_at(world, enc, prompts, t, noise, act)


def client_packet(world: SplitWorld, images, conds, prompts, t: int, drop: RngState,
                  noise: RngState, defense: RngState, cond_encoder, client_id: int = 0,
                  iteration: int = 0) -> tuple[FeaturePacket, ClientFeatures]:
    """One client step, raw batch to packet: the arm's raw-data defense, the
    client pipeline at timestep `t`, the arm's feature defense. Training and
    evaluation packets are both built here. `defense` feeds both hooks; the
    features come back as they were before the feature defense."""
    arm, privacy = world.defense, world.privacy
    images, conds = preprocess_batch(images, conds, arm, defense)
    f = client_features(world, images, conds, prompts, t, drop, noise, cond_encoder, world.act)
    feat_unet, feat_control = postprocess_features(f.h1, f.s.data, arm, privacy.delta,
                                                   privacy.alpha_sens, defense)
    prompt_feat = None if arm.runs("prompt") else world.prompt_encoder.encode(prompts)
    return FeaturePacket(client_id, iteration, t, feat_unet, feat_control, f.n_hat,
                         prompt_feat), f


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
        self.trainable = cfg.mode == "classic"
        if self.trainable:
            # classic split learning: each client trains its own copy of the condition encoder
            self.cond_encoder = world.cond_encoder.clone()
            self.opt = AdamW(list(self.cond_encoder.named_parameters().values()), lr=cfg.client_lr)
        else:
            self.cond_encoder = world.cond_encoder  # frozen, shared by every client
            self.opt = None
        self._pending: Tensor | None = None

    def forward_step(self, iteration: int) -> FeaturePacket:
        d = self.data
        idx = np.asarray(self.rng_order.integers(0, len(d.images) - 1, (self.cfg.batch,)))
        t = sample_private_timestep(self.world.privacy, self.rng_t)
        pkt, f = client_packet(self.world, d.images[idx], d.conds[idx],
                               [d.prompts[i] for i in idx], t, self.rng_drop, self.rng_noise,
                               self.rng_defense, self.cond_encoder, self.client_id, iteration)
        self._pending = f.s if self.trainable else None
        return pkt

    def apply_gradient(self, gpkt: GradientPacket) -> None:
        self.opt.zero_grad()
        tt.backward(self._pending, seed_grad=gpkt.grad_control)
        self.opt.step()
        self._pending = None


class ServerWorker:
    """Server-side state: control branch remainder, frozen denoiser, optimizer."""

    def __init__(self, world: SplitWorld, cfg: ProtocolConfig):
        self.world = world
        self.cfg = cfg
        self.opt = AdamW(list(world.branch.named_parameters().values()), lr=cfg.server_lr)
        self.loss_history: list[float] = []

    def train_step(self, pkt: FeaturePacket) -> tuple[float, GradientPacket | None]:
        """One step on one packet, which keeps the packet contract or is a
        WireError naming the client: each latent field is (batch,
        *LATENT_SHAPE), and `prompt_feat` is (batch, MAX_PROMPT_LEN, D_PROMPT)
        exactly when the arm reads the prompt. A hiding arm's blocks get none."""
        w = self.world
        hides_prompt = w.defense.runs("prompt")
        want = dict.fromkeys(("feat_unet", "feat_control", "label_noise"),
                             (self.cfg.batch, *LATENT_SHAPE))
        want["prompt_feat"] = ("absent" if hides_prompt
                               else (self.cfg.batch, MAX_PROMPT_LEN, D_PROMPT))
        for name, shape in want.items():
            got = "absent" if getattr(pkt, name) is None else getattr(pkt, name).shape
            if got != shape:
                raise WireError(f"client {pkt.client_id} iteration {pkt.iteration}: {name} "
                                f"shape {got}, expected {shape} under {w.defense.kind}")
        classic = self.cfg.mode == "classic"
        s = Tensor(pkt.feat_control, requires_grad=classic)
        h1 = Tensor(pkt.feat_unet)
        prompt = None if hides_prompt else Tensor(pkt.prompt_feat)
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
            return loss_val, GradientPacket(iteration=pkt.iteration, grad_control=s.grad.copy())
        return loss_val, None


@dataclass
class SplitResult:
    ledger: TransmissionLedger
    loss_history: list[float]
    clients: list[ClientWorker]


def _validate(world: SplitWorld, cfg: ProtocolConfig) -> None:
    cfg.validate()
    if cfg.mode == "gradient_free" and not world.cond_encoder.frozen:
        raise ValueError("gradient_free mode requires a frozen condition encoder "
                         "(the pretrained encoder)")


# ---------------------------------------------------------------------------
# the client loop and the serve loop over sockets


CONNECT_DEADLINE_S = 30.0  # a client retries its connect, a listener waits for each client
IO_TIMEOUT_S = 10.0  # a client or the server gives up on a peer that stays silent this long
JOIN_TIMEOUT_S = 10.0  # teardown waits this long for each client thread


def _client_loop(client: ClientWorker, cfg: ProtocolConfig, sock: socket.socket) -> None:
    """HELLO, one packet per iteration (waiting for its gradient in classic
    mode), DONE; the socket is closed however the loop ends. A reset, closed
    or silent (IO_TIMEOUT_S) connection is a TransportError."""
    with sock:
        try:
            sock.sendall(frame_message(ControlMessage(code=CTRL_HELLO, client_id=client.client_id)))
            for it in range(cfg.iterations):
                sock.sendall(frame_message(client.forward_step(it)))
                if cfg.mode == "classic":
                    frame = read_frame(sock)
                    if frame is None:
                        raise TransportError("server closed the connection mid-session")
                    gpkt = parse_message(frame)
                    if not isinstance(gpkt, GradientPacket):
                        raise TransportError(f"expected GradientPacket, got {type(gpkt).__name__}")
                    client.apply_gradient(gpkt)
            sock.sendall(frame_message(ControlMessage(code=CTRL_DONE, client_id=client.client_id)))
        except TimeoutError as exc:
            raise TransportError(f"the server sent nothing for {IO_TIMEOUT_S:g} s") from exc
        except OSError as exc:  # reset or closed under a send
            raise TransportError(f"connection to the server lost: {exc}") from exc


def _serve(server: ServerWorker, cfg: ProtocolConfig, conns: list[socket.socket],
           ledger: TransmissionLedger, capture) -> None:
    """Train on every uplink frame until `cfg.clients` clients have sent DONE.

    One thread waits on every connection and reads one whole frame from
    each ready one; a peer silent for IO_TIMEOUT_S ends the session, and so
    does any frame on a connection after its client's DONE. Every
    connection is closed here, however the loop ends.
    """
    routes: dict[int, socket.socket] = {}  # client id -> connection its HELLO came in on
    finished: dict[socket.socket, int] = {}  # connection -> client whose DONE came in on it
    with contextlib.ExitStack() as stack:
        sel = stack.enter_context(selectors.DefaultSelector())
        for conn in conns:
            stack.enter_context(conn)
            conn.settimeout(IO_TIMEOUT_S)
            sel.register(conn, selectors.EVENT_READ)
        while len(finished) < cfg.clients:
            ready = sel.select(IO_TIMEOUT_S)
            if not ready:
                raise TransportError(f"no client sent anything for {IO_TIMEOUT_S:g} s")
            for key, _ in ready:
                conn = key.fileobj
                try:
                    frame = read_frame(conn)
                except OSError as exc:  # reset, or silent mid-frame
                    raise TransportError(f"connection to a client lost: {exc}") from exc
                if frame is None:  # a connection ended
                    sel.unregister(conn)
                    cid = next((c for c, r in routes.items() if r is conn), None)
                    if cid is None:
                        raise TransportError("a connection closed before its client sent HELLO")
                    if conn not in finished:
                        raise TransportError(f"client {cid} closed its connection before DONE")
                    continue
                msg = parse_message(frame)
                if conn in finished:
                    what = msg if isinstance(msg, ControlMessage) else type(msg).__name__
                    raise TransportError(f"client {finished[conn]} sent {what} after DONE")
                if isinstance(msg, ControlMessage):
                    if msg.code == CTRL_HELLO and msg.client_id not in routes:
                        routes[msg.client_id] = conn
                    elif msg.code == CTRL_DONE and routes.get(msg.client_id) is conn:
                        finished[conn] = msg.client_id
                    else:
                        raise TransportError(f"unexpected control message {msg}")
                    continue
                if not isinstance(msg, FeaturePacket):
                    raise TransportError(f"server received a {type(msg).__name__}")
                if routes.get(msg.client_id) is not conn:
                    raise TransportError(f"packet from unregistered client id {msg.client_id}")
                if capture is not None:
                    capture.write(frame)
                _, gpkt = server.train_step(msg)
                sample = IterationSample(client_id=msg.client_id, bytes_up=len(frame),
                                         bytes_down=0, payload_up=tensor_payload_bytes(msg))
                if gpkt is not None:
                    framed = frame_message(gpkt)
                    sample.bytes_down = len(framed)
                    sample.payload_down = tensor_payload_bytes(gpkt)
                    try:
                        conn.sendall(framed)
                    except OSError as exc:
                        raise TransportError(f"connection to client {msg.client_id} lost") from exc
                ledger.samples.append(sample)


def _run_clients(clients: list[ClientWorker], cfg: ProtocolConfig, socks: list[socket.socket],
                 serve) -> None:
    """Each client loop in a thread of its own while `serve()` runs in the
    caller's; `serve` closes the server ends however it ends. A client's
    own failure becomes the cause of the transport error it led to."""
    errors: list[BaseException] = []

    def run(client, sock):
        try:
            _client_loop(client, cfg, sock)
        except Exception as exc:  # raised in the caller's thread once all are joined
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(c, s), daemon=True,
                                name=f"splitstream-client-{c.client_id}")
               for c, s in zip(clients, socks)]
    for t in threads:
        t.start()
    failure = None
    try:
        serve()
    except BaseException as exc:
        failure = exc
    for t in threads:
        t.join(JOIN_TIMEOUT_S)
    stuck = [t.name for t in threads if t.is_alive()]
    if stuck and failure is None:
        failure = TransportError(f"{stuck} still running {JOIN_TIMEOUT_S:g} s after the session")
    if isinstance(failure, TransportError) and errors:
        raise failure from errors[0]
    if failure is not None:
        raise failure


def _connect(host: str, port: int) -> socket.socket:
    deadline = time.monotonic() + CONNECT_DEADLINE_S
    while True:
        try:
            return socket.create_connection((host, port), timeout=IO_TIMEOUT_S)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise TransportError(
                    f"could not connect to {host}:{port} within {CONNECT_DEADLINE_S:g} s"
                ) from exc
            time.sleep(0.05)


def _accept(lsock: socket.socket, n: int) -> list[socket.socket]:
    """`n` connections; TransportError once none arrives for CONNECT_DEADLINE_S."""
    lsock.settimeout(CONNECT_DEADLINE_S)
    conns: list[socket.socket] = []
    try:
        while len(conns) < n:
            conns.append(lsock.accept()[0])
    except TimeoutError as exc:
        for conn in conns:
            conn.close()
        raise TransportError(f"{len(conns)} of {n} clients connected; none more within "
                             f"{CONNECT_DEADLINE_S:g} s") from exc
    return conns


def _capture(cfg: ProtocolConfig):
    return open(cfg.capture_path, "wb") if cfg.capture_path else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# sessions


def run_split_training(world: SplitWorld, cfg: ProtocolConfig) -> SplitResult:
    """Drive the whole session; returns the ledger and trained server state.

    In-process, each client holds one end of a socketpair; over TCP, each
    client gets a loopback connection on an ephemeral port.
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
            socks, conns = map(list, zip(*(socket.socketpair() for _ in clients)))
            for sock in socks:
                sock.settimeout(IO_TIMEOUT_S)
        else:
            with socket.create_server(("127.0.0.1", 0), backlog=cfg.clients) as lsock:
                socks = [_connect(*lsock.getsockname()) for _ in clients]
                conns = _accept(lsock, cfg.clients)
        _run_clients(clients, cfg, socks, lambda: _serve(server, cfg, conns, ledger, capture))
    return SplitResult(ledger, server.loss_history, clients)


def run_server_role(world: SplitWorld, cfg: ProtocolConfig, host: str, port: int) -> SplitResult:
    """Serve `cfg.clients` remote clients until each signals done.

    Both endpoints rebuild the same world from the shared config; only
    framed messages cross the wire.
    """
    _validate(world, cfg)
    server = ServerWorker(world, cfg)
    ledger = TransmissionLedger()
    with socket.create_server((host, port), backlog=cfg.clients) as lsock:
        conns = _accept(lsock, cfg.clients)
    with _capture(cfg) as capture:
        _serve(server, cfg, conns, ledger, capture)
    return SplitResult(ledger, server.loss_history, [])


def run_client_role(world: SplitWorld, cfg: ProtocolConfig, client_id: int,
                    host: str, port: int) -> None:
    """One remote client: stream packets, apply gradients in classic mode."""
    _validate(world, cfg)
    if not 0 <= client_id < cfg.clients:
        raise ValueError(f"client_id must be in 0..{cfg.clients - 1}, got {client_id}")
    client = ClientWorker(client_id, world, cfg, RngState(cfg.seed).split(f"client-{client_id}"))
    _client_loop(client, cfg, _connect(host, port))
