"""Quickstart: build a matrix program, plan it with DMac, run it, and read
the communication/time metrics.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import ClusterConfig, DMacSession, ProgramBuilder


def main() -> None:
    # 1. Write a matrix program with the R-like expression API.
    #    (`@` is the paper's %*%, `*`/`/` are cell-wise, `.T` transposes.)
    pb = ProgramBuilder()
    v = pb.load("V", (600, 400), sparsity=0.3)
    w = pb.random("W", (600, 10))
    h = pb.random("H", (10, 400))
    for _ in range(10):  # GNMF multiplicative updates
        h = pb.assign("H", h * (w.T @ v) / (w.T @ w @ h))
        w = pb.assign("W", w * (v @ h.T) / (w @ h @ h.T))
    pb.output(w)
    pb.output(h)
    program = pb.build()

    # 2. Create a session over a simulated 4-worker cluster and plan.
    #    (`with` stops the session's host threads on exit; a session that is
    #    just dropped gives them up when it is garbage-collected.)
    rng = np.random.default_rng(7)
    data = rng.random((600, 400))
    data[data < 0.7] = 0.0
    data[data != 0] += 0.05  # keep values positive for GNMF
    with DMacSession(ClusterConfig(num_workers=4, threads_per_worker=4)) as session:
        plan = session.plan(program)
        print(f"plan: {len(plan.steps)} steps in {plan.num_stages} stages, "
              f"predicted communication {plan.predicted_bytes / 1024:.1f} KB")

        # 3. Bind the input data and execute.
        result = session.run(program, {"V": data}, plan=plan)

    # 4. Inspect the outputs and the run's cost.
    w_out = result.matrices[program.bindings["W"]]
    h_out = result.matrices[program.bindings["H"]]
    error = np.linalg.norm(data - w_out @ h_out) / np.linalg.norm(data)
    print(f"V ~= W @ H with relative error {error:.3f}")
    print(f"communication: {result.comm_bytes / 1024:.1f} KB measured "
          f"(<= prediction)")
    print(f"simulated time: {result.simulated_seconds:.3f} s "
          f"({result.time.network_seconds:.3f} s network, "
          f"{result.time.compute_seconds:.3f} s compute)")

    # 5. The same program under the dependency-blind baseline moves far more.
    with DMacSession(ClusterConfig(num_workers=4, threads_per_worker=4)) as baseline:
        systemml = baseline.run_systemml(program, {"V": data})
    print(f"SystemML-S on the same program: {systemml.comm_bytes / 1024:.1f} KB "
          f"({systemml.comm_bytes / max(result.comm_bytes, 1):.1f}x DMac)")


if __name__ == "__main__":
    main()
