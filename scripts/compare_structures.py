"""Classic vs gradient-free structure comparison: bytes on the wire and the
simulated time model, at matched tensors and iteration counts.

The classic arm (defense `none`) trains a scratch condition encoder from the
`grad_control` the server returns, its only downlink field; the
gradient-free arm (`ours_plus_plus`) runs the frozen pretrained encoder and
sends nothing down. The arms differ in defense too, so most of the byte
ratio is prompt hiding (`ours_plus_plus` omits `prompt_feat`), not the
structure.

Each session records only the bytes it sent; `t_seq`/`t_pipe` apply one
SimClock model to those bytes when the ledger is reported, in clock units,
not measurements. `wall` is the measured wall time of each training session.

Usage: python scripts/compare_structures.py [iterations]
"""

import sys
import time
from pathlib import Path

from splitstream.config import load_config
from splitstream.experiment import build_world, prepare, protocol_config
from splitstream.protocol import SimClock, run_split_training

ROOT = Path(__file__).parent.parent


def main():
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    clock = SimClock(t_client=1.0, t_server=2.0, rate=2e5)
    ledgers = {}
    for mode, defense in (("classic", "none"), ("gradient_free", "ours_plus_plus")):
        cfg = load_config(ROOT / "configs" / "reference.ini")
        cfg.dataset.n_train = 64
        cfg.pretrain.ae_epochs = 1
        cfg.protocol.mode = mode
        cfg.protocol.iterations = iterations
        cfg.defense.kind = defense
        cfg.attacks.methods = []
        cfg.validate()
        data, ae, alpha = prepare(cfg)
        world = build_world(cfg, defense, ae, data, alpha)
        t0 = time.perf_counter()
        res = run_split_training(world, protocol_config(cfg))
        wall = time.perf_counter() - t0
        ledgers[mode] = res.ledger
        d = res.ledger.to_dict(clock)
        print(f"{mode:14s} up={d['bytes_up']:>9} B  down={d['bytes_down']:>8} B  "
              f"SimClock model: t_seq={d['t_total_sequential']:8.1f}  "
              f"t_pipe={d['t_total_pipelined']:8.1f}  measured: wall={wall:7.2f} s")
    ratio = ledgers["classic"].total_bytes() / ledgers["gradient_free"].total_bytes()
    print(f"\nbyte ratio classic/gradient_free = {ratio:.2f}")


if __name__ == "__main__":
    main()
