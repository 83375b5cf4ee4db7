#!/usr/bin/env python3
"""End-to-end benchmark on the synthetic corpus.

Generates disjoint train/test sets, trains the contact network and the
action classifier on contact-augmented clips, scores both on the test set
with ``evaluate_pipeline``, and finishes with the four-variant mask
ablation.  The defaults finish in a few minutes on one CPU core and
should print something close to:

    contact element accuracy   98.87%
    action top-1 (test)        99.52%
    baseline                   90.00%
    contact_only               96.19%
    distant_only               99.52%
    contact_distant            99.52%

Pass --report to also write metrics.json/confusion.csv/per_object.csv
for the full pipeline.
"""

import argparse
import sys
import time

import numpy as np

from casar.datamodel import DatasetConfig
from casar.evaluation import evaluate_pipeline, run_ablation, write_report
from casar.pipeline import (
    ActionModuleConfig,
    ContactModuleConfig,
    train_action_module,
    train_contact_module,
)
from casar.synth import SynthSpec, synth_generate


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--classes", type=int, default=6)
    parser.add_argument("--train-per-class", type=int, default=100)
    parser.add_argument("--test-per-class", type=int, default=35)
    parser.add_argument("--seed", type=int, default=7,
                        help="train-set seed; the test set uses seed+1")
    parser.add_argument("--f-hidden", type=int, default=64)
    parser.add_argument("--f-epochs", type=int, default=40)
    parser.add_argument("--g-hidden", type=int, default=256)
    parser.add_argument("--g-epochs", type=int, default=100)
    parser.add_argument("--ablation-epochs", type=int, default=60)
    parser.add_argument("--skip-ablation", action="store_true")
    parser.add_argument("--report", default=None, help="report output directory")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    dc = DatasetConfig()
    t0 = time.time()

    train_clips, _, train_samples = synth_generate(
        SynthSpec(class_count=args.classes, clips_per_class=args.train_per_class,
                  seed=args.seed)
    )
    test_clips, _, test_samples = synth_generate(
        SynthSpec(class_count=args.classes, clips_per_class=args.test_per_class,
                  seed=args.seed + 1),
        clip_prefix="test",
    )
    print(f"data: {len(train_clips)} train / {len(test_clips)} test clips, "
          f"{len(train_samples)} / {len(test_samples)} labeled frames "
          f"({time.time() - t0:.0f}s)")

    f_cfg = ContactModuleConfig(
        hidden_width=args.f_hidden, epochs=args.f_epochs, base_lr=1e-4,
        lr_period_epochs=max(1, args.f_epochs // 2), batch_size=64, seed=args.seed,
    )
    t1 = time.time()
    contact, f_hist = train_contact_module(train_samples, f_cfg, dc)
    print(f"contact module: focal loss {f_hist[0]:.5f} -> {f_hist[-1]:.5f} "
          f"({time.time() - t1:.0f}s)")

    g_cfg = ActionModuleConfig(
        hidden_width=args.g_hidden, epochs=args.g_epochs, base_lr=2e-4,
        lr_period_epochs=max(1, args.g_epochs // 2), batch_size=48, seed=args.seed,
        action_head="softmax_ce", augment_contact=True, binarize_contact=True,
    )
    t2 = time.time()
    action, g_hist = train_action_module(train_clips, contact, g_cfg, dc)
    print(f"action module: loss {g_hist[0]:.5f} -> {g_hist[-1]:.5f} "
          f"({time.time() - t2:.0f}s)")

    report = evaluate_pipeline(contact, action, test_clips, test_samples, dc)
    # the contact and distant halves have equal width, so their mean is the element accuracy
    element_acc = (report.average_contact_acc + report.average_distant_acc) / 2
    print(f"contact element accuracy   {element_acc * 100:.2f}%")
    print(f"action top-1 (test)        {report.top1_accuracy * 100:.2f}%")
    if args.report:
        write_report(report, args.report, provenance={
            "train_seed": args.seed, "test_seed": args.seed + 1,
            "classes": args.classes,
        })
        print(f"report written to {args.report}")

    if not args.skip_ablation:
        t3 = time.time()
        rows = run_ablation(
            train_clips, test_clips, contact,
            ActionModuleConfig(
                hidden_width=args.g_hidden, epochs=args.ablation_epochs,
                base_lr=2e-4, lr_period_epochs=max(1, args.g_epochs // 2),
                batch_size=48, seed=args.seed, action_head="softmax_ce",
                binarize_contact=True,
            ),
            dc,
        )
        for row in rows:
            print(f"{row.variant:26s} {row.accuracy * 100:.2f}%")
        print(f"ablation ({time.time() - t3:.0f}s)")

    # sanity: the augmented pipeline should agree with itself when rerun
    again = evaluate_pipeline(contact, action, test_clips, [], dc)
    assert np.array_equal(again.confusion, report.confusion)
    print(f"total {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
