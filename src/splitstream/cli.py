"""Command-line interface.

Subcommands: gen-data, pretrain, train, attack, budget, report, run. Every run is
reproducible from its config file; SPLITSTREAM_SEED overrides the seed. `train`
and `attack` run a stage of `run` and take every setting from the config.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import data as dtt
from .config import ATTACK_METHODS, ConfigError, load_config
from .diffusion import ScheduleError
from .privacy import (CalibrationError, epsilon_for_timestep, timestep_for_epsilon,
                      write_budget_csv)
from .protocol import TransportError
from .wire import WireError


def cmd_gen_data(args):
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    images, conds, prompts, _ = dtt.generate_dataset(args.n, args.seed)
    out = Path(args.out)
    for name in ("images", *conds):
        (out / name).mkdir(parents=True, exist_ok=True)
    for i, image in enumerate(images):
        dtt.write_ppm(out / "images" / f"{i:05d}.ppm", image)
        for kind, cond in conds.items():
            dtt.write_ppm(out / kind / f"{i:05d}.ppm", cond[i])
    (out / "prompts.txt").write_text("\n".join(" ".join(p) for p in prompts) + "\n")
    print(f"wrote {len(images)} samples to {out}")


def cmd_pretrain(args):
    from .checkpoint import save_checkpoint
    from .experiment import prepare

    cfg = load_config(args.config)
    _, ae, _ = prepare(cfg)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "autoencoder.tckp",
                    {name: p.data for name, p in ae.named_parameters().items()})
    last = ae.pretrain_losses[-1] if ae.pretrain_losses else float("nan")
    print(f"pretrained autoencoder: final recon loss {last:.5f} -> {out / 'autoencoder.tckp'}")


def _endpoint(args) -> tuple[str, int] | None:
    """The HOST:PORT of --listen or --connect, if either is given; an empty
    HOST is 127.0.0.1. Port 0 is refused: a client cannot reach it, and a
    listener on it binds a port no client can learn."""
    flag, text = ("--listen", args.listen) if args.listen else ("--connect", args.connect)
    if not text:
        return None
    host, _, port = text.rpartition(":")
    if not port.isdecimal() or not 1 <= int(port) <= 65535:
        raise ConfigError(f"{flag} {text}: needs HOST:PORT with a port in 1..65535")
    return host or "127.0.0.1", int(port)


def cmd_train(args):
    if args.client_id is not None and not args.connect:
        raise ConfigError("--client-id names the client a --connect process runs; "
                          "pass --connect HOST:PORT with it")
    client_id = args.client_id or 0
    cfg = load_config(args.config)
    if args.connect and not 0 <= client_id < cfg.protocol.clients:
        raise ConfigError(f"--client-id must be in 0..{cfg.protocol.clients - 1}, got {client_id}")
    endpoint = _endpoint(args)
    from .experiment import (build_world, frozen_fingerprint, prepare, protocol_config,
                             record_training, save_client_secret)
    from .protocol import run_client_role, run_server_role, run_split_training

    # with --listen/--connect, both processes rebuild the same world from the config
    data, ae, alpha = prepare(cfg)
    world = build_world(cfg, cfg.defense.kind, ae, data, alpha)
    out = Path(args.out or cfg.out_dir)
    if args.connect:
        # a client writes its own confound secret, and nothing else
        run_client_role(world, protocol_config(cfg), client_id, *endpoint)
        save_client_secret(world, out)
        print(f"client {client_id} finished {cfg.protocol.iterations} iterations")
        return
    out.mkdir(parents=True, exist_ok=True)
    pcfg = protocol_config(cfg, capture_path=str(out / "packets_training.bin"))
    frozen_before = frozen_fingerprint(world)
    res = run_server_role(world, pcfg, *endpoint) if args.listen else run_split_training(world, pcfg)
    record_training(cfg, world, res, frozen_before, out)
    if args.listen:
        print(f"served {res.ledger.packets_up} packets and {res.ledger.replies_down} replies from "
              f"{cfg.protocol.clients} clients -> {out}")
        return
    losses = res.loss_history
    print(f"trained {cfg.protocol.mode} for {len(losses)} steps: "
          f"loss {losses[0]:.4f} -> {losses[-1]:.4f}" if losses else "no iterations run")
    print(f"ledger: up={res.ledger.bytes_up}B down={res.ledger.bytes_down}B -> {out}")


def cmd_attack(args):
    from .experiment import prepare, run_attack_suite

    cfg = load_config(args.config)
    kind = args.defense or cfg.defense.kind
    if kind not in cfg.arm_kinds:  # only --defense can name a kind outside the config
        raise ConfigError(f"--defense {kind} is not an arm of the config: "
                          f"{', '.join(dict.fromkeys(cfg.arm_kinds))}")
    method = args.method.replace("-", "_")
    data, ae, alpha = prepare(cfg)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # one cell of `run`'s attack grid: the same row, recons and packets_<kind>.bin
    cell = replace(cfg, attacks=replace(cfg.attacks, methods=[method], defenses=[kind]))
    [row] = run_attack_suite(cell, ae, data, alpha, out)
    with open(out / f"attack_{method}.jsonl", "w") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"{method}: SSIM {row['ssim_mean']:.3f} PSNR {row['psnr_mean']:.2f} "
          f"({row['n_samples']} samples) -> {out}")


def cmd_budget(args):
    cfg = load_config(args.config)
    delta, alpha = cfg.privacy.delta, cfg.privacy.alpha
    if alpha is None:
        raise ConfigError("budget needs [privacy] alpha: an empty one is estimated in a run")
    sched = cfg.schedule.build()
    try:
        t_s = (args.t_s if args.epsilon is None
               else timestep_for_epsilon(args.epsilon, sched, delta, alpha))
        eps_s = epsilon_for_timestep(t_s, sched, delta, alpha)
    except (CalibrationError, ScheduleError) as exc:
        flag = f"--t-s {args.t_s}" if args.epsilon is None else f"--epsilon {args.epsilon:g}"
        raise ConfigError(f"{flag}: {exc}") from None
    # the table `run --config` writes to budget.csv
    write_budget_csv(sched, delta, alpha, sys.stdout)
    print(f"t_s = {t_s}, epsilon_s = {eps_s:.4f}", file=sys.stderr)


def cmd_report(args):
    from .experiment import emit_report

    run = Path(args.run)
    metrics_path = run / "metrics.jsonl"
    if not metrics_path.exists():
        raise SystemExit(f"no metrics.jsonl under {run}")
    metrics = [json.loads(line) for line in metrics_path.read_text().splitlines() if line]
    emit_report(run, metrics)
    print((run / "summary.md").read_text())


def cmd_run(args):
    from .experiment import run_experiment

    cfg = load_config(args.config)
    if args.out:
        cfg.out_dir = args.out
    out = run_experiment(cfg)
    print(f"experiment complete -> {out}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="splitstream",
                                description="split-learning privacy simulator")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="synthesize the shape dataset as PPM files")
    g.add_argument("--n", type=int, default=64)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    pre = sub.add_parser("pretrain", help="pretrain and freeze the autoencoder")
    pre.add_argument("--config")
    pre.add_argument("--out")
    pre.set_defaults(fn=cmd_pretrain)

    tr = sub.add_parser("train", help="run split training")
    tr.add_argument("--config")
    role = tr.add_mutually_exclusive_group()
    role.add_argument("--listen", metavar="HOST:PORT",
                      help="run the server role only, for cross-process deployments")
    role.add_argument("--connect", metavar="HOST:PORT",
                      help="run one client role against a remote server")
    tr.add_argument("--client-id", type=int, help="the client --connect runs (default: 0)")
    tr.add_argument("--out")
    tr.set_defaults(fn=cmd_train)

    at = sub.add_parser("attack", help="run one cell of the config's attack grid")
    dashed = (m.replace("_", "-") for m in ATTACK_METHODS)
    at.add_argument("--method", required=True, choices=sorted({*ATTACK_METHODS, *dashed}))
    at.add_argument("--defense", metavar="KIND",
                    help="the config's arm to attack (default: its [defense] kind)")
    at.add_argument("--config")
    at.add_argument("--out")
    at.set_defaults(fn=cmd_attack)

    bu = sub.add_parser("budget", help="print the config's budget table as CSV, as budget.csv")
    bu.add_argument("--config")
    group = bu.add_mutually_exclusive_group(required=True)
    group.add_argument("--t-s", dest="t_s", type=int)
    group.add_argument("--epsilon", type=float)
    bu.set_defaults(fn=cmd_budget)

    rep = sub.add_parser("report", help="regenerate summary tables for a run")
    rep.add_argument("--run", required=True)
    rep.set_defaults(fn=cmd_report)

    ru = sub.add_parser("run", help="run the full experiment pipeline")
    ru.add_argument("--config")
    ru.add_argument("--out")
    ru.set_defaults(fn=cmd_run)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except ConfigError as e:
        # argparse's error line and exit status; the arguments themselves parsed, so no usage
        parser.exit(2, f"{parser.prog}: error: {e}\n")
    except (TransportError, WireError) as e:  # a session that failed, not a usage error
        parser.exit(1, f"{parser.prog}: error: {e}\n")


if __name__ == "__main__":
    main()
