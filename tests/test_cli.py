"""CLI surface: every subcommand drives the pipeline it names."""

import argparse
import json
import socket
import threading
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from splitstream.cli import build_parser, main
from splitstream.config import ATTACK_METHODS, ExperimentConfig
from splitstream.data import read_ppm
from splitstream.wire import iter_frames

SMOKE_INI = Path(__file__).resolve().parents[1] / "configs" / "smoke.ini"

MINI_INI = """
[experiment]
seed = 13
[dataset]
n_train = 24
n_public = 16
n_private = 3
[pretrain]
ae_epochs = 1
[protocol]
iterations = 3
batch = 2
[attacks]
methods = whitebox
defenses = none, ours_plus_plus
whitebox_iters = 20
inverse_iters = 60
"""


@pytest.fixture
def mini_config(tmp_path):
    p = tmp_path / "mini.ini"
    p.write_text(MINI_INI)
    return p


def test_gen_data(tmp_path, capsys):
    out = tmp_path / "data"
    main(["gen-data", "--n", "5", "--seed", "3", "--out", str(out)])
    assert len(list((out / "images").glob("*.ppm"))) == 5
    assert len(list((out / "segmentation").glob("*.ppm"))) == 5
    img = read_ppm(out / "images" / "00000.ppm")
    assert img.shape == (3, 32, 32)
    prompts = (out / "prompts.txt").read_text().splitlines()
    assert len(prompts) == 5 and all(p for p in prompts)


@pytest.mark.parametrize("n", ["0", "-3"])
def test_gen_data_rejects_an_empty_dataset(tmp_path, capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--n", n, "--out", str(tmp_path / "data")])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert f"--n must be >= 1, got {n}" in err
    assert not (tmp_path / "data").exists()


def test_budget_requires_exactly_one_selector(capsys):
    with pytest.raises(SystemExit):
        main(["budget"])
    with pytest.raises(SystemExit):
        main(["budget", "--t-s", "5", "--epsilon", "2"])


def test_budget_csv_stdout(capsys):
    main(["budget", "--t-s", "536"])
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "t,beta,alpha,alpha_bar,epsilon"  # the header of a run's budget.csv
    assert len(out) == 1002
    row = out[537].split(",")
    assert row[0] == "536" and 7.5 <= float(row[4]) <= 8.6


def test_budget_epsilon_selector(capsys):
    main(["budget", "--epsilon", "8"])
    err = capsys.readouterr().err
    assert "t_s =" in err


def test_budget_prints_the_runs_budget_csv(tmp_path, capsys):
    # the table is the config's, so it follows a [schedule] other than the default
    p = tmp_path / "k.ini"
    p.write_text(MINI_INI + "[schedule]\nk = 2e-5\n")
    run_dir = tmp_path / "run"
    main(["run", "--config", str(p), "--out", str(run_dir)])
    capsys.readouterr()
    main(["budget", "--config", str(p), "--t-s", "536"])
    out = capsys.readouterr().out
    assert out == (run_dir / "budget.csv").read_bytes().decode()
    main(["budget", "--t-s", "536"])
    assert capsys.readouterr().out != out


def test_budget_refuses_an_estimated_alpha(tmp_path, capsys):
    p = tmp_path / "estimate.ini"
    p.write_text("[privacy]\nalpha =\n")
    with pytest.raises(SystemExit) as exc:
        main(["budget", "--config", str(p), "--t-s", "536"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "error: budget needs [privacy] alpha" in captured.err


@pytest.mark.parametrize("selector, line", [
    (["--epsilon", "1"], "--epsilon 1: epsilon 1 unachievable: schedule floor is 6.297 at t=1000"),
    (["--epsilon", "0"], "--epsilon 0: epsilon must be > 0"),
    (["--t-s", "2000"], "--t-s 2000: timestep 2000 outside [0, 1000]"),
    (["--t-s", "-3"], "--t-s -3: timestep -3 outside [0, 1000]"),
], ids=["epsilon-below-floor", "epsilon-zero", "t_s-above-T", "t_s-negative"])
def test_budget_refuses_a_selector_out_of_range(capsys, selector, line):
    with pytest.raises(SystemExit) as exc:
        main(["budget", *selector])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and line in captured.err


def test_budget_epsilon_above_the_top_needs_no_floor(capsys):
    with pytest.warns(UserWarning, match="exceeds epsilon"):
        main(["budget", "--epsilon", "100"])
    assert "t_s = 0," in capsys.readouterr().err


def test_pretrain(tmp_path, mini_config, capsys):
    out = tmp_path / "pre"
    main(["pretrain", "--config", str(mini_config), "--out", str(out)])
    assert (out / "autoencoder.tckp").exists()


def test_train_and_report(tmp_path, mini_config, capsys):
    out = tmp_path / "train"
    main(["train", "--config", str(mini_config), "--out", str(out)])
    assert (out / "ledger.json").exists()
    assert (out / "control_branch.tckp").exists()
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["packets"] == 3


def test_train_mode_override(tmp_path, capsys):
    # train takes its mode and iterations from [protocol], as every process of a session does
    p = tmp_path / "classic.ini"
    p.write_text(MINI_INI.replace("iterations = 3", "iterations = 2\nmode = classic"))
    out = tmp_path / "classic"
    main(["train", "--config", str(p), "--out", str(out)])
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["bytes_down"] > 0 and ledger["packets"] == 2 * 2  # a reply to each packet


def test_train_on_a_shorter_schedule(tmp_path, capsys):
    # the timestep range ends at [schedule] T, so shrinking T alone is a valid config
    p = tmp_path / "short.ini"
    p.write_text(MINI_INI.replace("iterations = 3", "iterations = 6")
                 + "[schedule]\nT = 600\n[defense]\nt_s = 300\n")
    out = tmp_path / "short"
    main(["train", "--config", str(p), "--out", str(out)])
    with open(out / "packets_training.bin", "rb") as f:
        timesteps = [pkt.timestep for pkt in iter_frames(f)]
    assert len(timesteps) == 6 and all(300 <= t <= 600 for t in timesteps)


def _free_port() -> int:
    with socket.create_server(("127.0.0.1", 0)) as s:
        return s.getsockname()[1]


def test_train_roles_write_the_runs_training_files(tmp_path, mini_config, capsys):
    # the --listen server writes what an in-process session writes but the clients'
    # secret, and the --connect client (client 0: no --client-id) writes that secret
    # alone; an in-process session writes what `run` writes
    run_dir, local, served = tmp_path / "run", tmp_path / "local", tmp_path / "served"
    client = tmp_path / "client"
    main(["run", "--config", str(mini_config), "--out", str(run_dir)])
    main(["train", "--config", str(mini_config), "--out", str(local)])
    endpoint = f"127.0.0.1:{_free_port()}"
    errors = []

    def serve():
        try:
            main(["train", "--config", str(mini_config), "--listen", endpoint,
                  "--out", str(served)])
        except BaseException as exc:  # re-raised in the test thread
            errors.append(exc)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    main(["train", "--config", str(mini_config), "--connect", endpoint, "--out", str(client)])
    server.join(60)
    if errors:
        raise errors[0]
    assert not server.is_alive()
    shared = ["ledger.json", "control_branch.tckp", "model_manifest.txt", "packets_training.bin"]
    for name in [*shared, "client_secret/confound_delta.tckp"]:
        assert (local / name).read_bytes() == (run_dir / name).read_bytes(), name
    for name in shared:
        assert (served / name).read_bytes() == (local / name).read_bytes(), name
    assert not (served / "client_secret").exists()
    secret = "client_secret/confound_delta.tckp"
    assert [p.relative_to(client).as_posix() for p in client.rglob("*") if p.is_file()] == [secret]
    assert (client / secret).read_bytes() == (local / secret).read_bytes()


def test_full_run_and_report(tmp_path, mini_config, capsys):
    out = tmp_path / "run"
    main(["run", "--config", str(mini_config), "--out", str(out)])
    assert (out / "summary.md").exists()
    main(["report", "--run", str(out)])
    assert "whitebox" in capsys.readouterr().out


def assert_attack_is_the_runs_cell(atk_dir, run_dir, method, defense, n_private=3):
    """`attack` wrote the run's row, reconstructions and eval packets of that cell."""
    rows = [json.loads(line) for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
    row = json.loads((atk_dir / f"attack_{method}.jsonl").read_text())
    assert row in rows and (row["defense"], row["kind"]) == (defense, "attack")
    names = [f"packets_{defense}.bin",
             *(f"recons/{method}_{defense}_{i:03d}.ppm" for i in range(n_private))]
    for name in names:
        assert (atk_dir / name).read_bytes() == (run_dir / name).read_bytes(), name
    return row


def test_attack_row_equals_the_run_row(tmp_path, capsys):
    # `attack` runs one cell of the run's attack grid, row for row and byte for byte
    p = tmp_path / "all.ini"
    p.write_text(MINI_INI.replace("methods = whitebox", "methods = " + ", ".join(ATTACK_METHODS))
                 .replace("inverse_iters = 60", "inverse_iters = 5\nunsplit_outer = 2\n"
                          "unsplit_inner_x = 3\nunsplit_inner_theta = 3"))
    run_dir = tmp_path / "run"
    main(["run", "--config", str(p), "--out", str(run_dir)])
    for method in ATTACK_METHODS:
        for defense in ("none", "ours_plus_plus"):
            atk_dir = tmp_path / f"atk_{method}_{defense}"
            main(["attack", "--method", method, "--config", str(p), "--defense", defense,
                  "--out", str(atk_dir)])
            assert_attack_is_the_runs_cell(atk_dir, run_dir, method, defense)


def test_attack_builds_the_arm_from_the_runs_defense_section(tmp_path, capsys):
    # --defense swaps the kind only: the ours_c arm keeps the config's t_s = 700
    p = tmp_path / "t700.ini"
    p.write_text(MINI_INI.replace("defenses = none, ours_plus_plus", "defenses = none, ours_c")
                 + "[defense]\nkind = ours_plus_plus\nt_s = 700\n")
    run_dir, atk_dir = tmp_path / "run", tmp_path / "atk"
    main(["run", "--config", str(p), "--out", str(run_dir)])
    main(["attack", "--method", "whitebox", "--config", str(p), "--defense", "ours_c",
          "--out", str(atk_dir)])
    row = assert_attack_is_the_runs_cell(atk_dir, run_dir, "whitebox", "ours_c")
    assert row["t_s"] == 700


def test_attack_takes_no_packet_file(tmp_path, monkeypatch, capsys):
    # `attack` builds its arm's eval packets itself, as `run` does
    _no_pretraining(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--method", "whitebox", "--config", str(SMOKE_INI),
              "--packets", "x.bin", "--out", str(tmp_path / "atk")])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.splitlines()[-1] == "splitstream: error: unrecognized arguments: --packets x.bin"
    assert not (tmp_path / "atk").exists()


def test_train_refuses_listen_with_connect(tmp_path, mini_config, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(mini_config), "--listen", "127.0.0.1:0",
              "--connect", "127.0.0.1:1", "--out", str(tmp_path / "tr")])
    assert exc.value.code == 2 and "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "tr").exists()


def test_train_rejects_zero_clients(tmp_path, capsys):
    p = tmp_path / "zero.ini"
    p.write_text(MINI_INI.replace("iterations = 3", "iterations = 3\nclients = 0"))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(p), "--out", str(tmp_path / "tr")])
    assert exc.value.code == 2 and "clients >= 1" in capsys.readouterr().err
    assert not (tmp_path / "tr").exists()


@pytest.mark.parametrize("client_id", ["3", "-1"])
def test_train_connect_rejects_an_unknown_client_id(client_id, monkeypatch, capsys):
    import splitstream.experiment

    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretrained before checking --client-id")

    monkeypatch.setattr(splitstream.experiment, "prepare", no_pretraining)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(SMOKE_INI), "--connect", "127.0.0.1:1",
              "--client-id", client_id])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert f"--client-id must be in 0..0, got {client_id}" in err


@pytest.mark.parametrize("role", [[], ["--listen", "127.0.0.1:1"]], ids=["local", "listen"])
def test_train_refuses_a_client_id_without_connect(tmp_path, monkeypatch, capsys, role):
    # only a --connect process runs one client; `--connect` alone runs client 0
    assert build_parser().parse_args(["train", "--connect", ":1"]).client_id is None
    _no_pretraining(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(SMOKE_INI), *role, "--client-id", "0",
              "--out", str(tmp_path / "tr")])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert "error: --client-id names the client a --connect process runs" in err
    assert not (tmp_path / "tr").exists()


@pytest.mark.parametrize("role", ["--listen", "--connect"])
@pytest.mark.parametrize("endpoint", ["localhost", "h:abc", ":70000", ":0"])
def test_train_refuses_a_bad_endpoint(tmp_path, monkeypatch, capsys, role, endpoint):
    import splitstream.experiment

    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretrained before parsing the endpoint")

    monkeypatch.setattr(splitstream.experiment, "prepare", no_pretraining)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(SMOKE_INI), role, endpoint,
              "--out", str(tmp_path / "tr")])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert f"{role} {endpoint}: needs HOST:PORT" in err
    assert not (tmp_path / "tr").exists()


def test_train_connect_to_nobody_is_one_line_and_exit_1(tmp_path, mini_config, monkeypatch,
                                                         capsys):
    # a session that fails is no usage error: exit status 1, and no traceback
    from splitstream import protocol

    monkeypatch.setattr(protocol, "CONNECT_DEADLINE_S", 0.3)
    endpoint = f"127.0.0.1:{_free_port()}"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(mini_config), "--connect", endpoint,
              "--out", str(tmp_path / "client")])
    err = capsys.readouterr().err
    assert exc.value.code == 1 and len(err.splitlines()) == 1
    assert f"splitstream: error: could not connect to {endpoint} within 0.3 s" in err


def _no_pretraining(monkeypatch):
    import splitstream.experiment

    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretrained before checking the arm")

    monkeypatch.setattr(splitstream.experiment, "prepare", no_pretraining)


def test_attack_revalidates_the_defense_config(tmp_path, monkeypatch, capsys):
    # an attack arm whose kind is not in defenses.KINDS fails at config load
    _no_pretraining(monkeypatch)
    p = tmp_path / "gone.ini"
    p.write_text(MINI_INI.replace("defenses = none, ours_plus_plus",
                                  "defenses = none, patch_shuffle"))
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--method", "whitebox", "--config", str(p),
              "--out", str(tmp_path / "atk")])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == "splitstream: error: unknown attack-arm defense kind 'patch_shuffle'\n"
    assert not (tmp_path / "atk").exists()


def test_attack_refuses_a_batch_mixing_training_arm(tmp_path, monkeypatch, capsys):
    # without --defense the arm is [defense] kind; the batch-mixing kinds are gone,
    # so a config naming one fails at config load, before any work
    _no_pretraining(monkeypatch)
    p = tmp_path / "mixup.ini"
    for section, want in (("kind = mixup\n", "unknown defense kind 'mixup'"),
                          ("kind = mixup\nmix_count = 2\n", "unknown key [defense] mix_count")):
        p.write_text(MINI_INI + "[defense]\n" + section)
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--method", "whitebox", "--config", str(p),
                  "--out", str(tmp_path / "atk")])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err == f"splitstream: error: {want}\n"
        assert not (tmp_path / "atk").exists()


def test_the_seed_override_holds_with_and_without_a_config(tmp_path, monkeypatch):
    import splitstream.experiment

    seeds = []

    def prepare(cfg):
        seeds.append(cfg.seed)
        raise SystemExit(0)

    monkeypatch.setattr(splitstream.experiment, "prepare", prepare)
    monkeypatch.setenv("SPLITSTREAM_SEED", "99")
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    for config in ([], ["--config", str(empty)]):
        with pytest.raises(SystemExit):
            main(["pretrain", *config, "--out", str(tmp_path / "pre")])
    assert seeds == [99, 99]


def test_config_error_is_one_line_and_exit_2(tmp_path, mini_config, monkeypatch, capsys):
    _no_pretraining(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--method", "whitebox", "--config", str(mini_config),
              "--defense", "ldp_gauss", "--out", str(tmp_path / "atk")])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.count("\n") == 1 and err.startswith("splitstream: error: ")
    assert "--defense ldp_gauss is not an arm of the config: ours_plus_plus, none" in err


# (subcommand, option dest) -> why the option may share its name with a config value
RESTATED = {
    ("gen-data", "seed"): "gen-data reads no config",
    ("budget", "t_s"): "selects the floor budget's stderr line reports; the table is the "
                       "config's",
    ("budget", "epsilon"): "selects the floor budget's stderr line reports; the table is the "
                           "config's",
}


def test_no_option_restates_a_config_key():
    # an option overriding a config value lets two processes of one session disagree
    cfg = ExperimentConfig()
    settable = {"seed", "out_dir"} | {
        g.name for f in fields(cfg) if is_dataclass(section := getattr(cfg, f.name))
        for g in fields(section)}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    restated = {(name, action.dest) for name, parser in sub.choices.items()
                for action in parser._actions if action.dest in settable}
    assert restated == set(RESTATED)


def test_malformed_config_value_is_one_line_and_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[protocol]\nbatch = four\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(bad), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert "[protocol] batch = 'four' is not an integer" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", [["run"], ["train"], ["attack", "--method", "whitebox"],
                                     ["pretrain"]], ids=["run", "train", "attack", "pretrain"])
def test_estimated_alpha_from_one_training_sample_is_one_line_and_exit_2(tmp_path, capsys,
                                                                        command):
    # one training latent has no pair to measure a distance between
    bad = tmp_path / "one.ini"
    bad.write_text("[dataset]\nn_train = 1\n[privacy]\nalpha =\n")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", str(bad), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert "[privacy] alpha" in err and "[dataset] n_train = 1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, line", [
    # [protocol] mode alone decides the encoder, and reports use SimClock()'s defaults
    ("protocol", "condition_encoder = scratch"), ("protocol", "t_client = 1.0"),
    ("protocol", "t_server = 1.0"), ("protocol", "rate = 1e6"),
    # lambda is the sampler's argument, the timestep range ends at [schedule] T, the
    # client clips nothing, and no optimizer decays its weights
    ("schedule", "lambda = 0.0"), ("privacy", "t_max = 1000"), ("privacy", "clip_norm = 1.0"),
    ("protocol", "weight_decay = 0.0"),
], ids=["condition_encoder", "t_client", "t_server", "rate", "lambda", "t_max", "clip_norm",
        "weight_decay"])
def test_removed_protocol_key_is_one_line_and_exit_2(tmp_path, capsys, section, line):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[{section}]\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(bad), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert f"unknown key [{section}] {line.partition(' =')[0]}" in err
    assert not (tmp_path / "run").exists()


def test_attack_fresh_packets(tmp_path, mini_config, capsys):
    atk_dir = tmp_path / "atk2"
    main(["attack", "--method", "inverse-net", "--config", str(mini_config),
          "--out", str(atk_dir)])
    assert (atk_dir / "attack_inverse_net.jsonl").exists()


def test_attack_inverse_net_type1(tmp_path, capsys):
    p = tmp_path / "mini.ini"
    p.write_text(MINI_INI.replace("inverse_iters = 60", "inverse_iters = 5"))
    atk_dir = tmp_path / "atk3"
    main(["attack", "--method", "inverse-net-type1", "--config", str(p), "--out", str(atk_dir)])
    row = json.loads((atk_dir / "attack_inverse_net_type1.jsonl").read_text())
    assert row["method"] == "inverse_net_type1" and len(row["ssim"]) == 3
