#!/usr/bin/env python3
"""Refresh EXPERIMENTS.md's measured-results section from benchmarks/results/.

Run after `pytest benchmarks/ --benchmark-only`.
"""

from pathlib import Path

from repro.analysis.report import update_experiments_md

REPO_ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    results_dir = REPO_ROOT / "benchmarks" / "results"
    experiments = REPO_ROOT / "EXPERIMENTS.md"
    update_experiments_md(experiments, results_dir)
    print(f"updated {experiments} from {results_dir}")


if __name__ == "__main__":
    main()
