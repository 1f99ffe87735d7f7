#!/usr/bin/env python
"""Solve a 2-D Poisson problem with the distributed CG solver.

The paper motivates CG with PDEs "that arise in engineering, physics and
chemistry". Here we discretize ``-∇²u = f`` on a square grid with the
standard 5-point stencil, hand the SPD system to the paper's data-driven
CG solver running on a simulated Kebnekaise V100 allocation, checkpoint
half way, and restart from the checkpoint — the workflow the paper
highlights ("checkpoint-restart capability ... less than 300 lines").

Run:  python examples/poisson_cg.py
"""

import tempfile

import numpy as np

from repro.apps.cg import run_cg


def poisson_2d(grid: int):
    """5-point-stencil Laplacian on a grid x grid interior (SPD), and a
    smooth source term."""
    n = grid * grid
    a = np.zeros((n, n))
    h2 = 1.0 / (grid + 1) ** 2
    for i in range(grid):
        for j in range(grid):
            k = i * grid + j
            a[k, k] = 4.0 / h2
            if i > 0:
                a[k, k - grid] = -1.0 / h2
            if i < grid - 1:
                a[k, k + grid] = -1.0 / h2
            if j > 0:
                a[k, k - 1] = -1.0 / h2
            if j < grid - 1:
                a[k, k + 1] = -1.0 / h2
    xs = (np.arange(grid) + 1) / (grid + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    f = np.sin(np.pi * xx) * np.sin(np.pi * yy)
    return a, f.ravel()


def main() -> None:
    grid = 16  # 256 unknowns across 4 simulated V100 workers
    a, b = poisson_2d(grid)
    n = grid * grid

    print(f"Poisson {grid}x{grid} grid -> {n} unknowns, 4 V100 workers\n")

    result = run_cg(
        system="kebnekaise-v100",
        n=n,
        num_gpus=4,
        iterations=160,
        shape_only=False,
        problem=(a, b),
    )
    print(f"relative residual after {result.iterations} iterations: "
          f"{result.residual:.2e}")
    print(f"simulated solve time: {result.elapsed * 1e3:.1f} ms "
          f"({result.gflops:.2f} Gflops/s by the paper's convention)")

    reference = np.linalg.solve(a, b)
    err = np.max(np.abs(result.solution - reference)) / np.max(np.abs(reference))
    print(f"max relative error vs dense solve: {err:.2e}")

    # The analytic solution of -∇²u = sin(πx)sin(πy) is u = f / (2π²).
    analytic = b / (2 * np.pi**2)
    print(f"max |u - analytic| = {np.max(np.abs(result.solution - analytic)):.2e} "
          f"(O(h²) discretization error expected)")

    # ---- checkpoint / restart --------------------------------------------
    with tempfile.TemporaryDirectory() as ckpt:
        run_cg(system="kebnekaise-v100", n=n, num_gpus=4,
               iterations=80, shape_only=False, problem=(a, b),
               checkpoint_dir=ckpt, checkpoint_every=80)
        resumed = run_cg(system="kebnekaise-v100", n=n, num_gpus=4,
                         iterations=80, shape_only=False, problem=(a, b),
                         resume_dir=ckpt)
    print("\ncheckpoint after 80 iters -> restart -> 80 more:")
    print(f"  residual uninterrupted: {result.residual:.3e}")
    print(f"  residual resumed:       {resumed.residual:.3e}")
    assert resumed.solution.tobytes() == result.solution.tobytes(), \
        "restart must reproduce the uninterrupted run byte for byte"
    print("  restart reproduces the uninterrupted run byte for byte")


if __name__ == "__main__":
    main()
