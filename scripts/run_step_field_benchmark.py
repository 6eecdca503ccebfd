#!/usr/bin/env python3
"""Step-lengthscale field: arm comparison plus anchor covariance dumps.

Runs the fixed-vs-learned comparison, then refits one model per arm
through the CLI and exports the covariance field around three anchors
straddling the changepoint. The learned model's fields differ between
anchors; the fixed model's are translates of each other.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spectral_rff import benchmarks, cli, data  # noqa: E402
from spectral_rff.training import MODES  # noqa: E402

ANCHORS = "0.25,0.5;0.5,0.5;0.75,0.5"


def refit_argv(cfg, csv_path, out_dir):
    """`spectral-rff fit` arguments that train with the arm config cfg."""
    return ["fit", "--data", csv_path, "--mode", MODES[cfg.mode].token,
            "--m", str(cfg.m), "--lr", repr(cfg.learning_rate),
            "--max-steps", str(cfg.max_steps), "--patience", str(cfg.patience),
            "--eval-every", str(cfg.eval_every),
            "--val-frac", repr(cfg.validation_fraction),
            "--sigma-p", repr(cfg.dropout_sigma_p), "--seed", str(cfg.seed),
            "--out-dir", out_dir]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--n", type=int, default=700)
    ap.add_argument("--m", type=int, default=100,
                    help="fixed-arm bank size; the learned arm gets m/2 pairs")
    ap.add_argument("--max-steps", type=int, default=300)
    ap.add_argument("--out", default="step_field_out")
    args = ap.parse_args()

    spec = benchmarks.SyntheticSpec("step-lengthscale", n=args.n)
    bench = benchmarks.gen_step_lengthscale(spec)
    configs = benchmarks.step_field_arm_configs(args.m,
                                                max_steps=args.max_steps)
    report = benchmarks.compare(bench, args.runs, configs)

    os.makedirs(args.out, exist_ok=True)
    report.to_csv(os.path.join(args.out, "report.csv"))
    for arm in report.arms:
        print(f"{arm}: mean mse {report.mean_mse(arm):.4f}, "
              f"mean corr {report.mean_corr(arm):.4f}")

    csv_path = os.path.join(args.out, "field.csv")
    data.save_dataset_csv(csv_path, bench)
    for cfg in configs.values():
        token = MODES[cfg.mode].token
        out_dir = os.path.join(args.out, token)
        cli.main(refit_argv(cfg, csv_path, out_dir))
        cli.main(["kernel-dump", "--model", os.path.join(out_dir, "model.json"),
                  "--anchors", ANCHORS, "--window", "0.2", "--count", "21",
                  "--out-dir", out_dir])
        print(f"{token}: anchor fields in {out_dir}/kernel_anchor*.pgm")


if __name__ == "__main__":
    main()
