"""Command-line interface.

Subcommands: gen-data, pretrain, train, attack, budget, report. Every run
is reproducible from its config file; SPLITSTREAM_SEED overrides the seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import data as dtt
from .config import ATTACK_METHODS, ConfigError, ExperimentConfig, load_config
from .diffusion import make_linear_schedule, write_schedule_csv
from .privacy import epsilon_for_timestep, timestep_for_epsilon


def _load_cfg(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return ExperimentConfig().validate()


def cmd_gen_data(args):
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    samples = dtt.generate_dataset(args.n, args.seed)
    out = Path(args.out)
    (out / "images").mkdir(parents=True, exist_ok=True)
    for kind in dtt.CONDITION_KINDS:
        (out / kind).mkdir(exist_ok=True)
    prompts = []
    for i, s in enumerate(samples):
        dtt.write_ppm(out / "images" / f"{i:05d}.ppm", s.image)
        for kind in dtt.CONDITION_KINDS:
            dtt.write_ppm(out / kind / f"{i:05d}.ppm",
                          dtt.condition_to_input(s.conditions[kind]))
        prompts.append(" ".join(s.prompt))
    (out / "prompts.txt").write_text("\n".join(prompts) + "\n")
    print(f"wrote {len(samples)} samples to {out}")


def cmd_pretrain(args):
    from .checkpoint import save_checkpoint
    from .experiment import prepare

    cfg = _load_cfg(args)
    _, ae, _ = prepare(cfg)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "autoencoder.tckp", ae.named_parameters())
    last = ae.pretrain_losses[-1] if ae.pretrain_losses else float("nan")
    print(f"pretrained autoencoder: final recon loss {last:.5f} -> {out / 'autoencoder.tckp'}")


def cmd_train(args):
    cfg = _load_cfg(args)
    if args.mode:
        cfg.protocol.mode = args.mode.replace("-", "_")
    if args.clients is not None:
        cfg.protocol.clients = args.clients
    if args.iterations is not None:
        cfg.protocol.iterations = args.iterations
    if args.transport:
        cfg.protocol.transport = args.transport.replace("-", "_")
    cfg.validate()
    if args.connect and not 0 <= args.client_id < cfg.protocol.clients:
        raise ConfigError(
            f"--client-id must be in 0..{cfg.protocol.clients - 1}, got {args.client_id}")
    from .checkpoint import save_checkpoint
    from .experiment import build_world, prepare, protocol_config
    from .protocol import SimClock, run_client_role, run_server_role, run_split_training

    # with --listen/--connect, both processes rebuild the same world from the config
    data, ae, alpha = prepare(cfg)
    world = build_world(cfg, cfg.defense.kind, ae, data, alpha)
    endpoint = args.listen or args.connect
    if endpoint:
        host, _, port = endpoint.rpartition(":")
        host, port = host or "127.0.0.1", int(port)
    if args.connect:
        run_client_role(world, protocol_config(cfg), args.client_id, host, port)
        print(f"client {args.client_id} finished {cfg.protocol.iterations} iterations")
        return
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pcfg = protocol_config(cfg, capture_path=str(out / "packets_training.bin"))
    res = run_server_role(world, pcfg, host, port) if args.listen else run_split_training(world, pcfg)
    with open(out / "ledger.json", "w") as f:
        json.dump(res.ledger.to_dict(SimClock()), f, indent=2, sort_keys=True)
    save_checkpoint(out / "control_branch.tckp", world.branch.named_parameters())
    if args.listen:
        print(f"served {res.ledger.packets} packets from {cfg.protocol.clients} clients -> {out}")
        return
    losses = res.loss_history
    print(f"trained {cfg.protocol.mode} for {len(losses)} steps: "
          f"loss {losses[0]:.4f} -> {losses[-1]:.4f}" if losses else "no iterations run")
    print(f"ledger: up={res.ledger.bytes_up}B down={res.ledger.bytes_down}B -> {out}")


def cmd_attack(args):
    from .experiment import (EvalCapture, build_world, derived_seed, generate_eval_packets,
                             prepare, run_attack)
    from .wire import FeaturePacket, WireError, iter_frames

    cfg = _load_cfg(args)
    if args.defense_config:
        dcfg = load_config(args.defense_config)
        cfg.defense = dcfg.defense
        if cfg.defense.kind not in cfg.attacks.defenses:
            cfg.attacks.defenses = [cfg.defense.kind]
        cfg.validate()
    if args.packets:
        try:
            with open(args.packets, "rb") as f:
                packets = [p for p in iter_frames(f) if isinstance(p, FeaturePacket)]
        except OSError as e:
            raise SystemExit(f"{args.packets}: cannot read packet capture: {e.strerror}") from None
        except WireError as e:
            raise SystemExit(f"{args.packets}: corrupt packet capture: WireError: {e}") from None
        # attacks score packet i against private sample i, one sample a packet
        batches = sorted({len(p.feat_unet) for p in packets})
        if batches != [1] or len(packets) > cfg.dataset.n_private:
            raise SystemExit(
                f"{args.packets}: {len(packets)} packets of batch "
                f"{'/'.join(map(str, batches)) or '-'}, but attacks score 1 to "
                f"{cfg.dataset.n_private} packets of batch 1, one per private sample; pass the "
                "eval capture packets_<defense>.bin that `splitstream run` writes")
    data, ae, alpha = prepare(cfg)
    world = build_world(cfg, cfg.defense.kind, ae, data, alpha)
    cap = generate_eval_packets(world, data, derived_seed(cfg, "eval_packets"))
    if args.packets:
        if len(packets) != len(cap.packets):
            print(f"note: scoring uses the {len(packets)} packets from {args.packets}",
                  file=sys.stderr)
        cap = EvalCapture(packets=packets, zt=cap.zt[: len(packets)], t=cap.t,
                          truth_conds=cap.truth_conds[: len(packets)],
                          truth_images=cap.truth_images[: len(packets)])
    method = args.method.replace("-", "_")
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    row = run_attack(method, world, data, cap, cfg, out)
    with open(out / f"attack_{method}.jsonl", "w") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"{method}: SSIM {row['ssim_mean']:.3f} PSNR {row['psnr_mean']:.2f} "
          f"({row['n_samples']} samples) -> {out}")


def cmd_budget(args):
    sched = make_linear_schedule(args.T, args.k, args.beta0)
    if args.epsilon is not None:
        t_s = timestep_for_epsilon(args.epsilon, sched, args.delta, args.alpha)
    else:
        t_s = args.t_s
    eps_s = epsilon_for_timestep(t_s, sched, args.delta, args.alpha)
    # the same table `run` writes to budget.csv
    write_schedule_csv(sched, sys.stdout,
                       epsilon_fn=lambda t: epsilon_for_timestep(t, sched, args.delta, args.alpha))
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

    cfg = _load_cfg(args)
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
    tr.add_argument("--mode", choices=["classic", "gradient-free", "gradient_free"])
    tr.add_argument("--clients", type=int)
    tr.add_argument("--iterations", type=int)
    tr.add_argument("--transport", choices=["in-process", "in_process", "tcp"])
    role = tr.add_mutually_exclusive_group()
    role.add_argument("--listen", metavar="HOST:PORT",
                      help="run the server role only, for cross-process deployments")
    role.add_argument("--connect", metavar="HOST:PORT",
                      help="run one client role against a remote server")
    tr.add_argument("--client-id", type=int, default=0)
    tr.add_argument("--out")
    tr.set_defaults(fn=cmd_train)

    at = sub.add_parser("attack", help="run an inversion attack over captured packets")
    dashed = (m.replace("_", "-") for m in ATTACK_METHODS)
    at.add_argument("--method", required=True, choices=sorted({*ATTACK_METHODS, *dashed}))
    at.add_argument("--packets", help="captured packet frames (defaults to fresh eval packets)")
    at.add_argument("--defense-config", help="config whose [defense] section describes the arm")
    at.add_argument("--config")
    at.add_argument("--out")
    at.set_defaults(fn=cmd_attack)

    bu = sub.add_parser("budget", help="print the schedule/budget table as CSV, as budget.csv")
    bu.add_argument("--k", type=float, default=1.115e-5)
    bu.add_argument("--beta0", type=float, default=8.85e-4)
    bu.add_argument("--T", type=int, default=1000)
    bu.add_argument("--delta", type=float, default=1e-4)
    bu.add_argument("--alpha", type=float, default=0.16)
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


if __name__ == "__main__":
    main()
