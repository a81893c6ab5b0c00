"""Logistic regression + the cluster-size advisor.

Trains a logistic-regression model with gradient descent (the sigmoid runs
as a distributed element-wise operator), then asks the advisor what cluster
size the program wants before committing to one.

Run with:  python examples/logreg_advisor.py
"""

import numpy as np

from repro import ClusterConfig, DMacSession
from repro.advisor import advise_workers, best_worker_count
from repro.programs import build_logreg_program


def main() -> None:
    rng = np.random.default_rng(11)
    examples, features = 3000, 40
    design = rng.random((examples, features)) - 0.5
    true_w = rng.normal(size=(features, 1)) * 2.0
    probabilities = 1 / (1 + np.exp(-(design @ true_w)))
    labels = (rng.random((examples, 1)) < probabilities).astype(float)

    program = build_logreg_program(
        (examples, features), 1.0, iterations=60, learning_rate=2.0
    )

    # What-if: which cluster size does this program want?
    advice = advise_workers(program, candidate_workers=(2, 4, 8, 16))
    print(f"{'workers':>8}  {'comm':>10}  {'network':>9}  {'compute':>9}  {'total':>9}")
    for entry in advice:
        print(f"{entry.workers:>8}  {entry.predicted_comm_bytes / 1e3:>8.1f} KB"
              f"  {entry.predicted_network_seconds:>8.4f}s"
              f"  {entry.predicted_compute_seconds:>8.4f}s"
              f"  {entry.predicted_total_seconds:>8.4f}s")
    workers = best_worker_count(advice)
    print(f"advisor picks {workers} workers\n")

    # Run on the advised cluster, with a per-step trace.
    with DMacSession(
        ClusterConfig(num_workers=workers, threads_per_worker=4)
    ) as session:
        result = session.run(program, {"V": design, "y": labels}, trace=True)

    learned = result.matrices[program.bindings["w"]]
    accuracy = np.mean(
        ((1 / (1 + np.exp(-(design @ learned)))) > 0.5) == labels.astype(bool)
    )
    correlation = np.corrcoef(learned.ravel(), true_w.ravel())[0, 1]
    print(f"training accuracy {accuracy:.1%}, weight correlation {correlation:.3f}")
    print(f"communication {result.comm_bytes / 1e3:.1f} KB across "
          f"{result.num_stages} stages")

    assert result.trace is not None
    heaviest = max(result.trace, key=lambda record: record.comm_bytes)
    print(f"heaviest step on the network: {heaviest.step} "
          f"({heaviest.comm_bytes / 1e3:.1f} KB in stage {heaviest.stage})")


if __name__ == "__main__":
    main()
