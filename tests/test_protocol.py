"""Split training protocol: packet contents, mode semantics, byte accounting,
the simulated time model, and transport parity."""

import io
import socket
import threading
import time

import numpy as np
import pytest

from splitstream import protocol as pr
from splitstream.config import ConfigError
from splitstream.defenses import DefenseConfig
from splitstream.diffusion import make_linear_schedule
from splitstream.models import (ControlBranch, NoiseConfoundingActivation,
                                PromptEncoder, SelfAttention, ToyAutoencoder, ToyUNet,
                                UNetBlock, param_fingerprint, unet_denoise)
from splitstream.privacy import PrivacyParams, epsilon_for_timestep
from splitstream.protocol import (ClientDataset, ClientWorker, IterationSample,
                                  ProtocolConfig, ServerWorker, SimClock, SplitWorld,
                                  TransmissionLedger, TransportError, run_split_training)
from splitstream.rng import RngState
from splitstream.tensor import Tensor
from splitstream.wire import (CTRL_DONE, CTRL_HELLO, ControlMessage, FeaturePacket,
                              GradientPacket, WireError, frame_message, iter_frames,
                              tensor_payload_bytes)

DELTA, ALPHA = 1e-4, 0.16
VOCAB = ["one", "two", "red", "blue", "circle", "rect"]


def build_world(defense_kind="none", seed=777, n_data=12, clients=1,
                cond_encoder="pretrained") -> SplitWorld:
    rng = RngState(seed)
    sched = make_linear_schedule(1000, 1.115e-5, 8.85e-4)
    defense = DefenseConfig(defense_kind)
    privacy = PrivacyParams.from_ts(sched, DELTA, ALPHA,
                                    defense.t_s if defense.runs("floor") else 1)
    ae = ToyAutoencoder(rng.split("ae"))
    ae.freeze()
    unet = ToyUNet(rng.split("unet"))
    unet.freeze()
    if cond_encoder == "pretrained":
        enc = ae.E
    else:
        from splitstream.models import CondEncoder

        enc = CondEncoder(rng.split("cond"))
    branch = ControlBranch(unet, self_attend=defense.runs("prompt"))
    pe = PromptEncoder(VOCAB, rng.split("pe"))
    act = NoiseConfoundingActivation.create(rng.split("act")) if defense.runs("confound") else None
    data_rng = rng.split("data")
    datasets = []
    for _ in range(clients):
        images = data_rng.uniform((n_data, 3, 32, 32))
        conds = data_rng.uniform((n_data, 3, 32, 32))
        prompts = [[VOCAB[int(data_rng.integers(0, len(VOCAB) - 1))]] for _ in range(n_data)]
        datasets.append(ClientDataset(images, conds, prompts))
    return SplitWorld(sched, "cumulative", privacy, defense, pe, ae, enc, unet, branch, act,
                      datasets)


def make_cfg(**kw) -> ProtocolConfig:
    base = dict(mode="gradient_free", clients=1, iterations=4, batch=2, seed=5)
    base.update(kw)
    return ProtocolConfig(**base)


class TestClientForwardStep:
    def test_prompt_hiding_omits_prompt(self):
        world = build_world("ours_plus_plus")
        client = ClientWorker(0, world, make_cfg(), RngState(1))
        pkt = client.forward_step(0)
        assert pkt.prompt_feat is None

    def test_prompt_present_without_hiding(self):
        world = build_world("none")
        client = ClientWorker(0, world, make_cfg(), RngState(1))
        pkt = client.forward_step(0)
        assert pkt.prompt_feat is not None
        assert pkt.prompt_feat.shape[0] == 2  # batch

    def test_deterministic_given_rng(self):
        world = build_world("ours_plus_plus")
        a = ClientWorker(0, world, make_cfg(), RngState(2)).forward_step(0)
        b = ClientWorker(0, build_world("ours_plus_plus"), make_cfg(), RngState(2)).forward_step(0)
        assert a == b

    def test_timestep_respects_floor(self):
        world = build_world("ours_c")
        client = ClientWorker(0, world, make_cfg(), RngState(3))
        eps_s = epsilon_for_timestep(world.privacy.t_s, world.sched, DELTA, ALPHA)
        for it in range(40):
            pkt = client.forward_step(it)
            assert 536 <= pkt.timestep <= 1000
            assert epsilon_for_timestep(pkt.timestep, world.sched, DELTA, ALPHA) <= eps_s

    def test_undefended_samples_full_range(self):
        world = build_world("none")
        client = ClientWorker(0, world, make_cfg(), RngState(4))
        ts = {client.forward_step(i).timestep for i in range(50)}
        assert min(ts) < 536  # not clamped to the private floor

    def test_confound_changes_control_feature(self):
        base = build_world("none", seed=88)
        defended = build_world("ours_c", seed=88)
        pa = ClientWorker(0, base, make_cfg(), RngState(5)).forward_step(0)
        pb = ClientWorker(0, defended, make_cfg(), RngState(5)).forward_step(0)
        # same rng, same data: unet features before defenses agree on t? t_s
        # differs, so just check the defended control features are nonnegative
        # up to delta (|x| * 2 sigmoid(x) >= 0)
        assert pb.feat_control.min() >= defended.act.delta.min() - 1e-5


class TestRowChunks:
    CHUNK = 32  # a chunk of 16 rows or more keeps every conv's whole-batch layout

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 69, 97])
    def test_chunks_are_even_and_cover_the_batch(self, n, monkeypatch):
        monkeypatch.setattr(pr, "CHUNK_ROWS", self.CHUNK)
        chunks = pr.row_chunks(n)
        sizes = [c.stop - c.start for c in chunks]
        assert len(chunks) == -(-n // self.CHUNK)
        assert chunks[0].start == 0 and chunks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        assert max(sizes) <= self.CHUNK and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("defense_kind", ["none", "ours_plus_plus"])
    def test_chunked_pass_is_bit_equal_to_one_chunk(self, defense_kind, monkeypatch):
        # a ragged batch: three chunks, so the image encoder, enc_block_1 and the
        # condition path each run three times; both encoders draw dropout from
        # the same stream, so a stage that reorders those draws moves the bits
        n = 2 * self.CHUNK + 5
        world = build_world(defense_kind, n_data=n)
        d = world.datasets[0]
        out = {}
        for rows in (n, self.CHUNK):
            monkeypatch.setattr(pr, "CHUNK_ROWS", rows)
            out[rows] = pr.client_features(world, d.images, d.conds, d.prompts, 300,
                                           RngState(3), RngState(4), world.cond_encoder,
                                           world.act)
        assert len(pr.row_chunks(n)) == 3
        whole, chunked = out[n], out[self.CHUNK]
        for name in ("h1", "zt", "n_hat"):
            assert getattr(chunked, name).tobytes() == getattr(whole, name).tobytes(), name
        assert chunked.s.data.tobytes() == whole.s.data.tobytes()

    def test_one_chunk_is_passed_through(self, monkeypatch):
        def refuse(parts, axis):
            raise AssertionError("a single chunk was joined")

        monkeypatch.setattr(pr.tt, "concat", refuse)
        world = build_world("ours_plus_plus", n_data=4, cond_encoder="scratch")
        d = world.datasets[0]
        f = pr.client_features(world, d.images, d.conds, d.prompts, 300, RngState(3),
                               RngState(4), world.cond_encoder, world.act)
        assert f.s.requires_grad and f.s.shape == (4, 4, 8, 8)

    def test_classic_client_trains_through_the_chunks(self, monkeypatch):
        # a classic batch of three chunks: s stays in the scratch encoder's graph,
        # and its gradients are those of one chunk up to float32 summation order
        n = 2 * self.CHUNK + 5
        world = build_world(n_data=n, cond_encoder="scratch")
        grad_control = RngState(2).normal((n, 4, 8, 8))
        grads, packets = {}, {}
        for rows in (n, self.CHUNK):
            monkeypatch.setattr(pr, "CHUNK_ROWS", rows)
            client = ClientWorker(0, world, make_cfg(mode="classic", batch=n), RngState(9))
            params = client.cond_encoder.named_parameters()
            before = {k: p.data.copy() for k, p in params.items()}
            packets[rows] = frame_message(client.forward_step(0))
            client.apply_gradient(GradientPacket(iteration=0, grad_control=grad_control))
            assert all(not np.array_equal(p.data, before[k]) for k, p in params.items())
            grads[rows] = {k: p.grad for k, p in params.items()}
        assert packets[self.CHUNK] == packets[n]
        for k, g in grads[n].items():
            assert np.abs(g).max() > 0, k
            np.testing.assert_allclose(grads[self.CHUNK][k], g, rtol=1e-4,
                                       atol=1e-5 * np.abs(g).max(), err_msg=k)


class TestServerTrainStep:
    def test_first_step_loss_matches_unconditional(self):
        world = build_world("none")
        cfg = make_cfg()
        client = ClientWorker(0, world, cfg, RngState(6))
        pkt = client.forward_step(0)
        uncond = unet_denoise(Tensor(pkt.feat_unet), pkt.timestep, Tensor(pkt.prompt_feat), [],
                              world.unet)
        # careful: unet_denoise runs block 1 again; compare via server path
        h1 = Tensor(pkt.feat_unet)
        uncond = world.unet.server_forward(h1, pkt.timestep, Tensor(pkt.prompt_feat), [])
        want = float(np.mean((pkt.label_noise.astype(np.float64) - uncond.data) ** 2))
        server = ServerWorker(world, cfg)
        loss, gpkt = server.train_step(pkt)
        assert gpkt is None
        assert abs(loss - want) < 1e-6 * max(1.0, want)

    def test_classic_returns_gradient_packet(self):
        world = build_world("none")
        cfg = make_cfg(mode="classic")
        client = ClientWorker(0, world, cfg, RngState(7))
        pkt = client.forward_step(0)
        server = ServerWorker(world, cfg)
        loss, gpkt = server.train_step(pkt)
        assert gpkt is not None
        assert gpkt.grad_control.shape == pkt.feat_control.shape
        assert gpkt.n_pred is None  # the reply carries the partition gradient alone
        # zero convs block the partition gradient at init; it appears once
        # they have moved off zero
        assert np.all(gpkt.grad_control == 0.0)
        pkt2 = client.forward_step(1)
        _, gpkt2 = server.train_step(pkt2)
        assert np.abs(gpkt2.grad_control).max() > 0

    def test_frozen_hash_unchanged_after_steps(self):
        world = build_world("none")
        cfg = make_cfg()
        client = ClientWorker(0, world, cfg, RngState(8))
        server = ServerWorker(world, cfg)
        before = param_fingerprint({**world.unet.named_parameters("u."),
                                    **world.autoencoder.named_parameters("a.")})
        for it in range(25):
            server.train_step(client.forward_step(it))
        after = param_fingerprint({**world.unet.named_parameters("u."),
                                   **world.autoencoder.named_parameters("a.")})
        assert before == after
        assert len(server.loss_history) == 25

    def test_shape_mismatch_rejected(self):
        world = build_world("none")
        server = ServerWorker(world, make_cfg())
        bad = FeaturePacket(0, 0, 5, np.zeros((1, 4, 8, 8), np.float32),
                            np.zeros((1, 4, 4, 4), np.float32),
                            np.zeros((1, 4, 8, 8), np.float32))
        with pytest.raises(ValueError, match="shape"):
            server.train_step(bad)

    def test_prompts_never_reach_a_hiding_servers_blocks(self, monkeypatch):
        # every block a hiding server runs gets no prompt, so none attends to
        # one; the control branch self-attends and the client's enc_block_1
        # still reads the real prompt
        world = build_world("ours_plus_plus", seed=14)
        cfg = make_cfg()
        pkt = ClientWorker(0, world, cfg, RngState(1)).forward_step(0)
        given = []
        call = UNetBlock.__call__

        def recording(blk, x, t, prompt):
            given.append(prompt)
            return call(blk, x, t, prompt)

        monkeypatch.setattr(UNetBlock, "__call__", recording)
        ServerWorker(world, cfg).train_step(pkt)
        assert len(given) == 7 and all(p is None for p in given)
        branch = world.branch
        assert all(isinstance(b.attn, SelfAttention)
                   for b in (branch.enc_block_1, branch.enc_block_2, branch.mid))
        zt = Tensor(RngState(2).normal((2, 4, 8, 8)))
        h1 = [world.unet.enc_block_1(zt, 3, Tensor(world.prompt_encoder.encode([[w]] * 2))).data
              for w in ("red", "blue")]
        assert h1[0].tobytes() != h1[1].tobytes()

    def test_nan_loss_aborts_with_diagnostic(self):
        world = build_world("none")
        server = ServerWorker(world, make_cfg())
        pkt = ClientWorker(0, world, make_cfg(), RngState(9)).forward_step(3)
        pkt.feat_unet = np.full_like(pkt.feat_unet, np.nan)
        with pytest.raises(FloatingPointError, match="iteration 3"):
            server.train_step(pkt)


class TestLedger:
    def test_time_totals_analytic(self):
        clock = SimClock(t_client=2.0, t_server=3.0, rate=1000.0)
        ledger = TransmissionLedger()
        for _ in range(30):
            ledger.samples.append(IterationSample(0, 500, 0))
        seq = ledger.t_total_sequential(clock)
        pipe = ledger.t_total_pipelined(clock)
        assert abs(seq - 30 * (2 + 3 + 0.5)) < 1e-9
        # server stage dominates: makespan ~ 30*3 + startup
        analytic = max(30 * 2.0, 30 * 3.0, 30 * 0.5)
        assert abs(pipe - analytic) / analytic < 0.2


class TestRunSplitTraining:
    def test_gradient_free_downlink_is_empty(self):
        world = build_world("ours_plus_plus")
        res = run_split_training(world, make_cfg(iterations=5))
        assert res.ledger.payload_bytes_down == 0
        assert res.ledger.bytes_down == 0
        assert res.ledger.packets == 5
        assert len(res.loss_history) == 5

    def test_classic_downlink_nonzero(self):
        world = build_world("none")
        res = run_split_training(world, make_cfg(mode="classic", iterations=5))
        assert res.ledger.payload_bytes_down > 0
        assert res.ledger.bytes_down > 0

    def test_classic_scratch_encoder_actually_trains(self):
        world = build_world("none", cond_encoder="scratch")
        cfg = make_cfg(mode="classic", iterations=6)
        server_before = param_fingerprint(world.branch.named_parameters())
        enc_before = param_fingerprint(world.cond_encoder.named_parameters())
        res = run_split_training(world, cfg)
        client = res.clients[0]
        assert client.trainable
        assert client.opt.step_count == 6
        # the updates reached the tensors the models compute with
        assert param_fingerprint(client.cond_encoder.named_parameters()) != enc_before
        assert param_fingerprint(world.branch.named_parameters()) != server_before
        # the client trained a clone: the world's encoder is as it was built
        assert client.cond_encoder is not world.cond_encoder
        assert param_fingerprint(world.cond_encoder.named_parameters()) == enc_before

    def test_gradient_free_client_runs_the_pretrained_encoder_itself(self):
        world = build_world("none")
        client = ClientWorker(0, world, make_cfg(), RngState(3))
        assert not client.trainable and client.opt is None
        assert client.cond_encoder is world.cond_encoder is world.autoencoder.E

    def test_gradient_free_requires_pretrained_encoder(self):
        world = build_world("none", cond_encoder="scratch")
        with pytest.raises(ValueError, match="pretrained encoder"):
            run_split_training(world, make_cfg(mode="gradient_free"))

    def test_capture_file_replays(self, tmp_path):
        # the ledger counts exactly the framed bytes that crossed the wire
        for mode in ("gradient_free", "classic"):
            cap = tmp_path / f"packets_{mode}.bin"
            world = build_world("ours_plus_plus", seed=55)
            res = run_split_training(world, make_cfg(mode=mode, iterations=4,
                                                     capture_path=str(cap)))
            with open(cap, "rb") as f:
                pkts = list(iter_frames(f))
            assert len(pkts) == 4
            assert all(isinstance(p, FeaturePacket) for p in pkts)
            assert [p.iteration for p in pkts] == [0, 1, 2, 3]
            assert res.ledger.bytes_up == cap.stat().st_size
            # a reply frames one gradient of the packet's control feature, nothing else
            down = [frame_message(GradientPacket(p.iteration, np.zeros_like(p.feat_control)))
                    for p in pkts] if mode == "classic" else []
            assert res.ledger.bytes_down == sum(map(len, down))
            assert res.ledger.packets == len(pkts) + len(down)
            assert res.ledger.payload_bytes_up == sum(map(tensor_payload_bytes, pkts))
            assert res.ledger.payload_bytes_down == len(down) * pkts[0].feat_control.nbytes

    def test_multi_client_processes_all(self):
        world = build_world("none", clients=3)
        res = run_split_training(world, make_cfg(clients=3, iterations=3))
        assert res.ledger.packets == 9
        assert len(res.loss_history) == 9

    def test_byte_ratio_classic_vs_gradient_free(self):
        # the headline accounting comparison: classic with prompts and
        # gradient downlink vs the gradient-free structure with prompt hiding
        world_c = build_world("none", seed=64)
        res_c = run_split_training(world_c, make_cfg(mode="classic", iterations=8))
        world_g = build_world("ours_plus_plus", seed=64)
        res_g = run_split_training(world_g, make_cfg(mode="gradient_free", iterations=8))
        ratio = res_c.ledger.total_bytes() / res_g.ledger.total_bytes()
        assert ratio >= 2.5

    def test_time_model_both_structures(self):
        clock = SimClock(t_client=1.0, t_server=2.0, rate=1e5)
        world = build_world("ours_plus_plus", seed=31)
        res = run_split_training(world, make_cfg(iterations=20))
        led = res.ledger
        t_c = len(led.samples) * clock.t_client
        t_s = len(led.samples) * clock.t_server
        t_r = sum(s.bytes_up + s.bytes_down for s in led.samples) / clock.rate
        assert abs(led.t_total_sequential(clock) - (t_c + t_s + t_r)) / (t_c + t_s + t_r) < 0.2
        assert abs(led.t_total_pipelined(clock) - max(t_c, t_s, t_r)) / max(t_c, t_s, t_r) < 0.2

    def test_time_totals_read_only_the_clock_given(self):
        # the session records bytes; the time model is whatever clock the report applies
        world = build_world("ours_plus_plus", seed=31)
        led = run_split_training(world, make_cfg(iterations=6)).ledger
        for clock in (SimClock(), SimClock(t_client=2.0, t_server=3.0, rate=1e3)):
            want = sum(clock.t_client + clock.t_server + (s.bytes_up + s.bytes_down) / clock.rate
                       for s in led.samples)
            assert led.to_dict(clock)["t_total_sequential"] == want

    @pytest.mark.parametrize("bad", [dict(mode="sideways"), dict(transport="udp"),
                                     dict(clients=0), dict(batch=0), dict(iterations=-1)])
    def test_bad_config_raises_config_error(self, bad):
        world = build_world("none")
        cfg = make_cfg(**bad)
        with pytest.raises(ConfigError):
            run_split_training(world, cfg)
        with pytest.raises(ConfigError):
            pr.run_client_role(world, cfg, 0, "127.0.0.1", 1)

    def test_ledger_dict_keys(self):
        world = build_world("none", seed=2)
        res = run_split_training(world, make_cfg(iterations=2))
        d = res.ledger.to_dict(SimClock())
        for key in ("bytes_up", "bytes_down", "packets", "t_total_sequential", "t_total_pipelined"):
            assert key in d


class TestTcpTransport:
    def test_tcp_matches_in_process(self):
        results = {}
        for transport in ("in_process", "tcp"):
            world = build_world("ours_plus_plus", seed=21)
            res = run_split_training(world, make_cfg(iterations=3, transport=transport))
            results[transport] = (res.loss_history, res.ledger.bytes_up)
        assert results["tcp"] == results["in_process"]

    def test_tcp_classic_roundtrip(self):
        world = build_world("none", seed=22)
        res = run_split_training(world, make_cfg(mode="classic", iterations=3, transport="tcp"))
        assert res.ledger.bytes_down > 0
        assert len(res.loss_history) == 3


class TestStandaloneRoles:
    def test_server_and_client_roles_match_in_process(self):
        import socket
        import threading

        from splitstream.protocol import run_client_role, run_server_role

        # both endpoints rebuild the same world from the shared seed
        cfg = make_cfg(iterations=4)
        baseline_world = build_world("ours_plus_plus", seed=23)
        baseline = run_split_training(baseline_world, make_cfg(iterations=4))

        lsock = socket.socket()
        lsock.bind(("127.0.0.1", 0))
        port = lsock.getsockname()[1]
        lsock.close()

        server_world = build_world("ours_plus_plus", seed=23)
        holder = {}

        def serve():
            holder["res"] = run_server_role(server_world, make_cfg(iterations=4),
                                            "127.0.0.1", port)

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        client_world = build_world("ours_plus_plus", seed=23)
        run_client_role(client_world, cfg, 0, "127.0.0.1", port)
        t.join(timeout=30)
        res = holder["res"]
        assert res.loss_history == baseline.loss_history
        assert res.ledger.bytes_up == baseline.ledger.bytes_up

    def test_classic_roles_exchange_gradients(self):
        import socket
        import threading

        from splitstream.protocol import run_client_role, run_server_role

        lsock = socket.socket()
        lsock.bind(("127.0.0.1", 0))
        port = lsock.getsockname()[1]
        lsock.close()

        server_world = build_world("none", seed=24)
        holder = {}

        def serve():
            holder["res"] = run_server_role(server_world, make_cfg(mode="classic", iterations=3),
                                            "127.0.0.1", port)

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        client_world = build_world("none", seed=24)
        run_client_role(client_world, make_cfg(mode="classic", iterations=3), 0,
                        "127.0.0.1", port)
        t.join(timeout=30)
        assert holder["res"].ledger.bytes_down > 0
        assert len(holder["res"].loss_history) == 3

    @pytest.mark.parametrize("client_id", [1, -1])
    def test_client_role_rejects_an_unknown_client_id(self, client_id):
        from splitstream.protocol import run_client_role

        with pytest.raises(ValueError, match="client_id must be in 0..0"):
            run_client_role(build_world("none", seed=25), make_cfg(), client_id, "127.0.0.1", 1)


def run_within(fn, seconds=10.0) -> dict:
    """Run `fn` in a thread joined with a deadline (there is no pytest
    timeout plugin); returns {"result": ...} or {"error": ...}."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"session still running after {seconds} s"
    return box


def splitstream_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("splitstream-")]


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
class TestFaults:
    """A broken peer ends the session with a structured error, never a hang."""

    def run_faulty(self, transport, mode="classic", defense="none"):
        world = build_world(defense, seed=40)
        cfg = make_cfg(mode=mode, iterations=5, transport=transport)
        box = run_within(lambda: run_split_training(world, cfg))
        assert isinstance(box.get("error"), (TransportError, WireError)), box
        assert not splitstream_threads()
        return box["error"]

    @pytest.mark.parametrize("mode", ["classic", "gradient_free"])
    def test_client_dies_mid_session(self, transport, mode, monkeypatch):
        real = ClientWorker.forward_step

        def dying(self, iteration):
            if iteration == 2:
                time.sleep(1.0)
                raise RuntimeError("client crashed")
            return real(self, iteration)

        monkeypatch.setattr(ClientWorker, "forward_step", dying)
        err = self.run_faulty(transport, mode)
        assert isinstance(err.__cause__, RuntimeError)

    def test_corrupt_frame(self, transport, monkeypatch):
        real = pr.frame_message

        def corrupting(msg):
            frame = real(msg)
            if isinstance(msg, FeaturePacket) and msg.iteration == 2:
                return b"JUNK" + frame[4:]
            return frame

        monkeypatch.setattr(pr, "frame_message", corrupting)
        assert isinstance(self.run_faulty(transport), WireError)

    @pytest.mark.parametrize("defense, breach, says", [
        # latents cropped to 4x4, under either arm
        ("none", "latent_size", "feat_unet shape (2, 4, 4, 4), expected (2, 4, 8, 8)"),
        ("ours_plus_plus", "latent_size", "feat_unet shape (2, 4, 4, 4), expected (2, 4, 8, 8)"),
        # three rows in a batch-2 session
        ("none", "batch", "feat_unet shape (3, 4, 8, 8), expected (2, 4, 8, 8)"),
        ("none", "missing_prompt", "prompt_feat shape absent, expected (2, 77, 32)"),
        ("ours_plus_plus", "unexpected_prompt", "prompt_feat shape (2, 77, 32), expected absent"),
    ], ids=["latent_size", "latent_size_hiding", "batch", "missing_prompt", "unexpected_prompt"])
    def test_a_packet_off_the_contract_ends_the_session(self, transport, defense, breach, says,
                                                         monkeypatch):
        real = ClientWorker.forward_step
        latents = ("feat_unet", "feat_control", "label_noise")

        def breaching(self, iteration):
            pkt = real(self, iteration)
            if iteration == 1:
                if breach == "latent_size":
                    for name in latents:
                        setattr(pkt, name, getattr(pkt, name)[:, :, :4, :4].copy())
                elif breach == "batch":
                    for name in (*latents, "prompt_feat"):
                        setattr(pkt, name, np.concatenate([getattr(pkt, name)] * 2)[:3])
                elif breach == "missing_prompt":
                    pkt.prompt_feat = None
                else:
                    pkt.prompt_feat = np.zeros((2, 77, 32), np.float32)
            return pkt

        monkeypatch.setattr(ClientWorker, "forward_step", breaching)
        err = self.run_faulty(transport, mode="gradient_free", defense=defense)
        assert isinstance(err, WireError)
        assert str(err) == f"client 0 iteration 1: {says} under {defense}"

    def test_packet_from_unregistered_client_id(self, transport, monkeypatch):
        real = ClientWorker.forward_step

        def impostor(self, iteration):
            pkt = real(self, iteration)
            if iteration == 1:
                pkt.client_id = 99
            return pkt

        monkeypatch.setattr(ClientWorker, "forward_step", impostor)
        err = self.run_faulty(transport, mode="gradient_free", defense="ours_plus_plus")
        assert "unregistered client id 99" in str(err)


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_many_clients_share_one_serve_loop(transport, tmp_path):
    # more clients than cores, with frequent thread switches: every frame is
    # counted once, captured once, and each client's packets keep their order
    import sys

    cap = tmp_path / "packets.bin"
    world = build_world("none", seed=42, n_data=6, clients=4)
    cfg = make_cfg(mode="classic", clients=4, iterations=3, transport=transport,
                   capture_path=str(cap))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        box = run_within(lambda: run_split_training(world, cfg), seconds=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert "error" not in box, box
    res = box["result"]
    with open(cap, "rb") as f:
        frames = list(iter_frames(f))
    assert len(res.loss_history) == len(frames) == 12
    assert res.ledger.bytes_up == cap.stat().st_size
    for cid in range(4):
        assert [p.iteration for p in frames if p.client_id == cid] == [0, 1, 2]
    assert not splitstream_threads()


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_slow_reads_end_with_every_thread_joined(transport, monkeypatch):
    # reads that are slow to return on both sides still end the session with
    # every thread it started joined
    real = pr.read_frame

    def slow(stream):
        frame = real(stream)
        time.sleep(0.2)
        return frame

    monkeypatch.setattr(pr, "read_frame", slow)
    before = set(threading.enumerate())
    world = build_world("none", seed=41)
    box = run_within(lambda: run_split_training(
        world, make_cfg(mode="classic", iterations=3, transport=transport)))
    assert "error" not in box, box
    assert len(box["result"].loss_history) == 3
    assert [t.name for t in set(threading.enumerate()) - before if t.is_alive()] == []


def serve_hand_rolled(world, cfg, sent: list[list[bytes]], closed=()):
    """`_serve` over one socketpair per client; client i's end sends the
    frames sent[i] and then stays open, or closes if i is in `closed`."""
    pairs = [socket.socketpair() for _ in sent]
    try:
        for i, ((sock, _), frames) in enumerate(zip(pairs, sent)):
            for frame in frames:
                sock.sendall(frame)
            if i in closed:
                sock.close()
        return run_within(lambda: pr._serve(ServerWorker(world, cfg), cfg,
                                            [conn for _, conn in pairs], TransmissionLedger(), None))
    finally:
        for sock, _ in pairs:
            sock.close()


def control(code: int, client_id: int) -> bytes:
    return frame_message(ControlMessage(code=code, client_id=client_id))


@pytest.mark.parametrize("late", ["packet", "hello", "done"])
def test_frames_after_done_are_refused(late, monkeypatch):
    # client 0 stays in the session, so the server goes on reading client 1
    monkeypatch.setattr(pr, "IO_TIMEOUT_S", 2.0)
    world = build_world("ours_plus_plus", seed=45, clients=2)
    cfg = make_cfg(clients=2)
    pkt = frame_message(ClientWorker(1, world, cfg, RngState(8)).forward_step(0))
    last = {"packet": pkt, "hello": control(CTRL_HELLO, 2), "done": control(CTRL_DONE, 1)}[late]
    box = serve_hand_rolled(world, cfg, [[control(CTRL_HELLO, 0)],
                                         [control(CTRL_HELLO, 1), pkt, control(CTRL_DONE, 1), last]])
    assert isinstance(box.get("error"), TransportError), box
    assert "client 1 sent" in str(box["error"]) and "after DONE" in str(box["error"])


def test_connection_closed_before_hello_is_named_as_such(monkeypatch):
    monkeypatch.setattr(pr, "IO_TIMEOUT_S", 2.0)
    world = build_world("ours_plus_plus", seed=46, clients=2)
    box = serve_hand_rolled(world, make_cfg(clients=2), [[control(CTRL_HELLO, 0)], []], closed={1})
    assert isinstance(box.get("error"), TransportError), box
    assert "closed before its client sent HELLO" in str(box["error"])


@pytest.mark.parametrize("defense_kind, mode, bound", [
    # prompt hiding: the control branch self-attends, the frozen blocks get no prompt
    ("ours_plus_plus", "gradient_free", 45),
    # the prompt reaches all 7 server blocks, one cross_attention node each (129 composed)
    ("none", "classic", 48),
], ids=["gradient_free_hiding", "classic_none"])
def test_server_step_graph_size(monkeypatch, defense_kind, mode, bound):
    # every node with a backward closure in the graph of one step's loss
    world = build_world(defense_kind, seed=47)
    cfg = make_cfg(mode=mode)
    pkt = ClientWorker(0, world, cfg, RngState(9)).forward_step(0)
    counted = []
    backward = Tensor.backward

    def counting(loss):
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                counted.append(node._backward is not None)
                stack.extend(node._parents)
        backward(loss)

    monkeypatch.setattr(Tensor, "backward", counting)
    ServerWorker(world, cfg).train_step(pkt)
    assert sum(counted) <= bound


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_silent_peer_ends_the_server_role(monkeypatch):
    # a peer that says HELLO and then neither sends nor closes
    monkeypatch.setattr(pr, "IO_TIMEOUT_S", 0.5)
    port = free_port()
    world = build_world("ours_plus_plus", seed=43)
    peers = []

    def say_hello_then_nothing():
        sock = pr._connect("127.0.0.1", port)
        sock.sendall(frame_message(ControlMessage(code=CTRL_HELLO, client_id=0)))
        peers.append(sock)

    t = threading.Thread(target=say_hello_then_nothing, daemon=True)
    t.start()
    try:
        box = run_within(lambda: pr.run_server_role(world, make_cfg(), "127.0.0.1", port))
    finally:
        t.join(10)
        for sock in peers:
            sock.close()
    assert isinstance(box.get("error"), TransportError), box
    assert "no client sent anything" in str(box["error"])


def test_silent_server_ends_the_client_role(monkeypatch):
    # a classic-mode server that accepts and reads every frame but never
    # sends the gradient the client waits for
    monkeypatch.setattr(pr, "IO_TIMEOUT_S", 0.5)
    world = build_world("none", seed=48)
    stop = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as lsock:
        lsock.settimeout(10.0)

        def read_and_never_reply():
            conn = lsock.accept()[0]
            with conn:
                conn.settimeout(0.1)
                while not stop.is_set():
                    try:
                        if not conn.recv(1 << 16):
                            return
                    except TimeoutError:
                        pass

        t = threading.Thread(target=read_and_never_reply, daemon=True)
        t.start()
        try:
            box = run_within(lambda: pr.run_client_role(world, make_cfg(mode="classic"), 0,
                                                        *lsock.getsockname()))
        finally:
            stop.set()
            t.join(10)
    assert isinstance(box.get("error"), TransportError), box
    assert "the server sent nothing for 0.5 s" in str(box["error"])


def test_server_role_gives_up_when_nobody_connects(monkeypatch):
    monkeypatch.setattr(pr, "CONNECT_DEADLINE_S", 0.3)
    world = build_world("ours_plus_plus", seed=44)
    box = run_within(lambda: pr.run_server_role(world, make_cfg(), "127.0.0.1", free_port()))
    assert isinstance(box.get("error"), TransportError), box
    assert "0 of 1 clients connected" in str(box["error"])
