"""Detection report across a small zoo of reference states.

Runs the hill-climbing probe search against each state for every block
count k in 2..n and tabulates the best value found.  A positive value
above tolerance certifies that the state is not k-separable; k = 2 rules
out biseparability.  The W state needs a real search budget (the natural
basis-pair and ghz-pair probes miss it), which is why the defaults here
are larger than elsewhere.

Usage:
    python3 scripts/family_detection_report.py
    python3 scripts/family_detection_report.py --restarts 16 --max-iters 400
"""

from __future__ import annotations

import argparse
import time

from ksep import ghz, maximally_mixed, w_state, white_noise
from ksep.search import SearchConfig, optimize_probe


def build_zoo():
    ghz3 = ghz(3).to_density()
    return [
        ("ghz n=3", ghz3),
        ("ghz n=4", ghz(4).to_density()),
        ("ghz n=2 d=3", ghz(2, 3).to_density()),
        ("w n=3", w_state(3).to_density()),
        ("noisy-ghz n=3 p=0.60", white_noise(ghz3, 0.60)),
        ("noisy-ghz n=3 p=0.80", white_noise(ghz3, 0.80)),
        ("mixed I/8 n=3", maximally_mixed((2, 2, 2))),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--max-iters", type=int, default=300)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    cfg = SearchConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)
    print(f"# restarts={cfg.restarts} max_iters={cfg.max_iters} seed={cfg.seed}")
    print(f"{'state':<22} {'k':>3} {'best lhs':>14} {'verdict':>18} {'secs':>7}")
    for name, rho in build_zoo():
        n = len(rho.dims)
        for k in range(2, n + 1):
            started = time.perf_counter()
            report = optimize_probe(rho, k, cfg)
            secs = time.perf_counter() - started
            print(f"{name:<22} {k:>3} {report.lhs:>14.6e} {report.verdict:>18} {secs:>7.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
