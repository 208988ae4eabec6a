"""CLI surface: every subcommand drives the pipeline it names."""

import json
from pathlib import Path

import numpy as np
import pytest

from splitstream.cli import main
from splitstream.config import ATTACK_METHODS
from splitstream.data import read_ppm
from splitstream.wire import FeaturePacket, frame_message

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


def test_pretrain(tmp_path, mini_config, capsys):
    out = tmp_path / "pre"
    main(["pretrain", "--config", str(mini_config), "--out", str(out)])
    assert (out / "autoencoder.tckp").exists()


def test_train_and_report(tmp_path, mini_config, capsys):
    out = tmp_path / "train"
    main(["train", "--config", str(mini_config), "--iterations", "3", "--out", str(out)])
    assert (out / "ledger.json").exists()
    assert (out / "control_branch.tckp").exists()
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["packets"] == 3


def test_train_mode_override(tmp_path, mini_config):
    out = tmp_path / "classic"
    main(["train", "--config", str(mini_config), "--mode", "classic",
          "--iterations", "2", "--out", str(out)])
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["bytes_down"] > 0


def test_full_run_and_report(tmp_path, mini_config, capsys):
    out = tmp_path / "run"
    main(["run", "--config", str(mini_config), "--out", str(out)])
    assert (out / "summary.md").exists()
    main(["report", "--run", str(out)])
    assert "whitebox" in capsys.readouterr().out


def test_attack_with_packet_file(tmp_path, mini_config, capsys):
    run_dir = tmp_path / "run"
    main(["run", "--config", str(mini_config), "--out", str(run_dir)])
    atk_dir = tmp_path / "atk"
    main(["attack", "--method", "whitebox", "--config", str(mini_config),
          "--packets", str(run_dir / "packets_ours_plus_plus.bin"),
          "--out", str(atk_dir)])
    assert (atk_dir / "attack_whitebox.jsonl").exists()
    assert list((atk_dir / "recons").glob("*.ppm"))
    row = json.loads((atk_dir / "attack_whitebox.jsonl").read_text())
    assert "ssim" in row and len(row["ssim"]) == 3


def test_attack_row_equals_the_run_row(tmp_path, capsys):
    # `attack` over a run's eval capture is the run's own attack arm, row for row
    p = tmp_path / "all.ini"
    p.write_text(MINI_INI.replace("methods = whitebox", "methods = " + ", ".join(ATTACK_METHODS))
                 .replace("inverse_iters = 60", "inverse_iters = 5\nunsplit_outer = 2\n"
                          "unsplit_inner_x = 3\nunsplit_inner_theta = 3"))
    arm = tmp_path / "none.ini"
    arm.write_text("[defense]\nkind = none\n")
    run_dir = tmp_path / "run"
    main(["run", "--config", str(p), "--out", str(run_dir)])
    rows = [json.loads(line) for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
    for method, defense in [*((m, "ours_plus_plus") for m in ATTACK_METHODS),
                            ("unsplit", "none")]:
        atk_dir = tmp_path / f"atk_{method}_{defense}"
        extra = ["--defense-config", str(arm)] if defense == "none" else []
        main(["attack", "--method", method, "--config", str(p), *extra,
              "--packets", str(run_dir / f"packets_{defense}.bin"), "--out", str(atk_dir)])
        row = json.loads((atk_dir / f"attack_{method}.jsonl").read_text())
        assert row in rows and (row["defense"], row["kind"]) == (defense, "attack")
        for i in range(3):
            name = f"recons/{method}_{defense}_{i:03d}.ppm"
            assert (atk_dir / name).read_bytes() == (run_dir / name).read_bytes()


def test_attack_rejects_a_training_capture(tmp_path, mini_config, capsys):
    # training packets carry `batch` samples each; attacks score one per packet
    train_dir = tmp_path / "train"
    main(["train", "--config", str(mini_config), "--out", str(train_dir)])
    capture = train_dir / "packets_training.bin"
    with pytest.raises(SystemExit, match="batch 2"):
        main(["attack", "--method", "inverse-net", "--config", str(mini_config),
              "--packets", str(capture), "--out", str(tmp_path / "atk")])
    assert not (tmp_path / "atk").exists()


def test_attack_refuses_an_empty_packet_file(tmp_path, mini_config, capsys):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(SystemExit, match="0 packets") as exc:
        main(["attack", "--method", "whitebox", "--config", str(mini_config),
              "--packets", str(empty), "--out", str(tmp_path / "atk")])
    assert str(exc.value).count("\n") == 0
    assert not (tmp_path / "atk").exists()


def test_attack_refuses_a_missing_packet_file(tmp_path, monkeypatch):
    import splitstream.experiment

    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretrained before reading --packets")

    monkeypatch.setattr(splitstream.experiment, "prepare", no_pretraining)
    missing = tmp_path / "missing.bin"
    with pytest.raises(SystemExit, match="missing.bin: cannot read packet capture") as exc:
        main(["attack", "--method", "whitebox", "--config", str(SMOKE_INI),
              "--packets", str(missing), "--out", str(tmp_path / "atk")])
    assert str(exc.value).count("\n") == 0
    assert not (tmp_path / "atk").exists()


@pytest.mark.parametrize("cut, error", [(slice(0, -10), "stream ended mid-frame"),
                                        (slice(1, None), "bad magic")], ids=["truncated", "bad-magic"])
def test_attack_refuses_a_corrupt_packet_file(tmp_path, mini_config, cut, error):
    one = np.zeros((1, 4, 8, 8), np.float32)
    frames = b"".join(frame_message(FeaturePacket(0, i, 5, one, one, one)) for i in range(2))
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(frames[cut])
    with pytest.raises(SystemExit, match=f"corrupt.bin: .*WireError: {error}") as exc:
        main(["attack", "--method", "whitebox", "--config", str(mini_config),
              "--packets", str(corrupt), "--out", str(tmp_path / "atk")])
    assert str(exc.value).count("\n") == 0
    assert not (tmp_path / "atk").exists()


def test_train_refuses_listen_with_connect(tmp_path, mini_config, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(mini_config), "--listen", "127.0.0.1:0",
              "--connect", "127.0.0.1:1", "--out", str(tmp_path / "tr")])
    assert exc.value.code == 2 and "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "tr").exists()


def test_train_rejects_zero_clients(tmp_path, mini_config, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(mini_config), "--clients", "0",
              "--out", str(tmp_path / "tr")])
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


def test_attack_revalidates_the_defense_config(tmp_path, mini_config, capsys):
    # a batch-mixing arm cannot be scored on one-sample eval packets
    arm = tmp_path / "arm.ini"
    arm.write_text("[defense]\nkind = patch_shuffle\n")
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--method", "whitebox", "--config", str(mini_config),
              "--defense-config", str(arm), "--out", str(tmp_path / "atk")])
    assert exc.value.code == 2 and "patch_shuffle" in capsys.readouterr().err
    assert not (tmp_path / "atk").exists()


def test_config_error_is_one_line_and_exit_2(tmp_path, mini_config, capsys):
    arm = tmp_path / "arm.ini"
    arm.write_text("[defense]\nkind = mixup\n")
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--method", "whitebox", "--config", str(mini_config),
              "--defense-config", str(arm), "--out", str(tmp_path / "atk")])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.count("\n") == 1 and err.startswith("splitstream: error: ") and "mixup" in err


def test_malformed_config_value_is_one_line_and_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[protocol]\nbatch = four\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(bad), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert "[protocol] batch = 'four' is not an integer" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("line", ["condition_encoder = scratch", "t_client = 1.0",
                                  "t_server = 1.0", "rate = 1e6"],
                         ids=["condition_encoder", "t_client", "t_server", "rate"])
def test_removed_protocol_key_is_one_line_and_exit_2(tmp_path, capsys, line):
    # [protocol] mode alone decides the encoder, and reports use SimClock()'s defaults
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[protocol]\nmode = classic\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(bad), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert f"unknown key [protocol] {line.partition(' =')[0]}" in err
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
    assert row["method"] == "inverse_net_type1_raw_image" and len(row["ssim"]) == 3
