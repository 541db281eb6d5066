"""
Few-shot training of the radial kernel on hierarchical data
===========================================================

Generates a tree-structured synthetic dataset (leaves are classes),
trains the AHRad kernel episodically with the tape-based gradients, and
compares the resulting prototype classifier against a plain Euclidean
baseline.  Ends with the learned radial coefficient profile.
"""

import numpy as np

from hypkernels.diff import materialize
from hypkernels.learning import RunConfig, evaluate, gen_tree_dataset, train

# ---------------------------------------------------------------------------
# The task
# ---------------------------------------------------------------------------
# Depth-3, branching-3 tree in R^8: 27 leaf classes, 12 noisy samples
# each.  Episodes are 5-way 1-shot with 3 queries per class.

config = RunConfig(
    task="fsl", variant="ahrad", m=2, truncation=6,
    curvature=0.02, noise_sigma=0.5,
    dataset_seed=0, init_seed=0, train_seed=10, eval_seed=100,
    lr=0.05, steps=300, eval_episodes=200,
)

dataset = gen_tree_dataset(config.dataset_seed, config.depth, config.branching,
                           config.dim, config.noise_sigma,
                           config.samples_per_leaf)
print(f"dataset: {dataset.features.shape[0]} samples, "
      f"{dataset.classes.size} classes, dim {dataset.features.shape[1]}")

baseline = evaluate(None, dataset, config.n_way, config.n_shot, config.n_query,
                    config.eval_episodes, config.eval_seed,
                    baseline="euclidean")
print(f"euclidean baseline: {baseline.accuracy:.3f} "
      f"+/- {baseline.ci_halfwidth:.3f}")

# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------
# Each step samples one episode, evaluates the prototype cross-entropy
# once on the array tape (the same forward gives the step's loss and its
# gradient), and applies an adaptive update to the pole, weight and
# radial-coefficient raws.

run = train(config)
print(f"\ninitial: acc {run.initial_eval.accuracy:.3f}, "
      f"loss {run.initial_eval.mean_loss:.3f}")
print(f"final:   acc {run.final_eval.accuracy:.3f}, "
      f"loss {run.final_eval.mean_loss:.3f}")

trace = np.array(run.loss_trace)
for lo in range(0, len(trace), 50):
    chunk = trace[lo:lo + 50]
    print(f"  steps {lo:3d}-{lo + len(chunk) - 1:3d}: "
          f"mean episode loss {chunk.mean():.3f}")

# ---------------------------------------------------------------------------
# What was learned
# ---------------------------------------------------------------------------
params, radial, curvature = materialize(run.final_params)
print("\nlearned mixture weights:", np.round(params.weights, 3))
print("learned radial coefficients alpha_0..alpha_K:")
print(" ", np.round(radial.alphas, 4))
print("pole norms:", np.round(np.linalg.norm(params.poles, axis=1), 4),
      f"(ball radius {curvature.radius:.2f})")
