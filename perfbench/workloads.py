"""The three benchmark workloads: `gram`, `train` and `eval`.

Each workload is driven by one caller in a closed loop: the next request
starts when the previous one has returned.  A workload has

- `setup(modules)`: generates its inputs from the workload seed with the
  benchmark's own numpy code and loads what the requests need;
- `prepare_checks()`: untimed preparation of the output checks;
- `request(i)`: the timed call into the package's public entry points;
- `check(i, outcome)`: the untimed output check, returning an error
  message or None;
- `pairs(i)`: kernel pairs the request scores, by the task's definition
  (not by how often the implementation evaluates them);
- `summary()`: one line about the checks, printed after the run;
- `batch`: the loop only stops after a multiple of this many requests;
- `zero` / `nonzero`: traced functions predicted to make no calls /
  some calls on this workload, asserted by the traced run.

Every config field the measured work depends on is pinned here or in the
JSON files next to this module, so a change of a library default cannot
change what is measured.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent

# --- gram -----------------------------------------------------------------

GRAM_VARIANTS = ("da", "ahl", "ahpoly", "ahrbf", "ahlap", "base", "ahrad")
GRAM_SIZES = (32, 64, 128)
GRAM_DIM = 8
# 0.02 keeps projected points interior; at 1.0 standard-normal features
# project to sqrt(c)*||z|| ~ 0.99, close to the boundary.
GRAM_CURVATURES = (0.02, 1.0)
GRAM_KERNEL = {"m": 2, "truncation": 50, "init_seed": 0, "init_scale": 0.1}
GRAM_EXTRA = {
    "ahpoly": {"offset": 1.0, "degree": 2},
    "ahrbf": {"bandwidth": 1.0},
    "ahlap": {"bandwidth": 1.0},
}
PSD_TOL = 1e-8            # acceptance tolerance of the PSD certificate
# Sampled entries against the _gmath scalar path: relative error at most
# ENTRY_REL_TOL times the entry's condition number (see entry_condition).
ENTRY_REL_TOL = 1e-12
ENTRIES_CHECKED = 8       # per request, one of them on the diagonal


def _gram_leaves(gm, diff, variant, c):
    """_gmath leaves from the pinned init recipe (seeded raws -> view)."""
    if variant == "da":
        return gm.KernelLeaves("da", c)
    rng = np.random.default_rng(GRAM_KERNEL["init_seed"])
    scale = GRAM_KERNEL["init_scale"]
    m = GRAM_KERNEL["m"]
    pole_raws = scale * rng.standard_normal((m, GRAM_DIM))
    logits = scale * rng.standard_normal(m)
    radial_raws = 0.5 + scale * rng.standard_normal(GRAM_KERNEL["truncation"] + 1)
    p = diff.ParamVector(pole_raws, logits, radial_raws, fixed_c=c)
    extra = GRAM_EXTRA.get(variant, {})
    return gm.KernelLeaves.from_view(
        p.view(), variant, extra.get("offset"), extra.get("degree"),
        extra.get("bandwidth"),
    )


def entry_condition(gm, leaves, ea, eb):
    """Relative condition number of one kernel entry under rounding.

    Rounding the inner products <z_a, z_b> and <b_a, b_b> perturbs the
    de Branges-Rovnyak value k_ab by a relative u * kappa_ab, where
    kappa_ab = 1 + c|z_a||z_b|/|1 - c<z_a,z_b>| + c|b_a||b_b|/|1 - c<b_a,b_b>|.
    It is 1 in the interior and grows like 1/(1 - c||z||^2) at the
    boundary.  Each variant propagates kappa through its transform; for
    ahrbf/ahlap the error of the exponent becomes a relative error of the
    value, so kappa grows with the exponent.
    """
    c = leaves.c

    def dbr_condition(p, q):
        kappa = 1.0 + c * gm.norm_sq(p.z) ** 0.5 * gm.norm_sq(q.z) ** 0.5 / abs(
            1.0 - c * gm.dot(p.z, q.z))
        if p.b is not None:
            kappa += c * gm.norm_sq(p.b) ** 0.5 * gm.norm_sq(q.b) ** 0.5 / abs(
                1.0 - c * gm.dot(p.b, q.b))
        return kappa

    variant = leaves.variant
    k_ab = gm.dbr(leaves, ea, eb)
    kappa_ab = dbr_condition(ea, eb)
    if variant in ("da", "ahl"):
        return kappa_ab
    if variant == "ahpoly":
        return max(1.0, leaves.degree * abs(k_ab) * kappa_ab / abs(k_ab + leaves.offset))
    k_aa, k_bb = ea.k_diag, eb.k_diag
    kappa_aa, kappa_bb = dbr_condition(ea, ea), dbr_condition(eb, eb)
    if variant in ("base", "ahrad"):
        kappa = 2.0 * kappa_ab + kappa_aa + kappa_bb
        if variant == "ahrad":
            beta = gm.base(leaves, ea, eb)
            terms = [a * beta**l for l, a in enumerate(leaves.alphas)]
            kappa *= sum(l * t for l, t in enumerate(terms)) / sum(terms)
        return max(1.0, kappa)
    # absolute rounding error of d^2 = k_aa + k_bb - 2 k_ab, in units of u
    spread = k_aa * kappa_aa + k_bb * kappa_bb + 2.0 * abs(k_ab) * kappa_ab
    tau = leaves.bandwidth
    if variant == "ahrbf":
        return max(1.0, spread / (2.0 * tau**2))
    d = max(k_aa + k_bb - 2.0 * k_ab, 0.0) ** 0.5
    return max(1.0, spread / (2.0 * d * tau)) if d > 0.0 else 1.0


class GramWorkload:
    """In-process `hypkernels gram` calls cycling through every variant/size.

    One cycle holds each of the 7 variants at each of the 3 sizes once, in
    a seeded order.  Curvature alternates request by request; the cycle
    length is odd, so the next cycle swaps the curvature of each slot.
    The loop runs whole cycles, which keeps the mix of sizes in every run
    the same.
    """

    batch = len(GRAM_VARIANTS) * len(GRAM_SIZES)
    nonzero = ("cli.main", "kernels.gram")
    zero = ("diff.grad", "diff.step", "_gmath.embed", "_gmath.score",
            "_gmath.kernel", "learning.train", "learning.evaluate",
            "learning.sample_episode")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self, hk):
        self.hk = SimpleNamespace(**hk)
        rng = np.random.default_rng(self.seed)
        slots = [(v, n) for v in GRAM_VARIANTS for n in GRAM_SIZES]
        self.slots = [slots[k] for k in rng.permutation(len(slots))]
        self.features = []
        self.feature_paths = []
        header = ",".join(f"x{k}" for k in range(GRAM_DIM))
        for slot, (_, n) in enumerate(self.slots):
            x = np.random.default_rng([self.seed, slot]).standard_normal((n, GRAM_DIM))
            path = self.workdir / f"features_{slot}.csv"
            lines = [header] + [",".join(repr(float(v)) for v in row) for row in x]
            path.write_text("\n".join(lines) + "\n")
            self.features.append(x)
            self.feature_paths.append(path)
        self.config_paths = {}
        for variant in GRAM_VARIANTS:
            for c in GRAM_CURVATURES:
                kernel = {"variant": variant, **GRAM_KERNEL, **GRAM_EXTRA.get(variant, {})}
                cfg = {"version": 1, "curvature": c,
                       "projection": {"kind": "exp0"}, "kernel": kernel}
                path = self.workdir / f"gram_{variant}_{c}.json"
                path.write_text(json.dumps(cfg))
                self.config_paths[variant, c] = path
        self.out_path = self.workdir / "gram_out.csv"

    def _request_args(self, i):
        slot = i % self.batch
        variant, n = self.slots[slot]
        c = GRAM_CURVATURES[i % len(GRAM_CURVATURES)]
        return slot, variant, n, c

    def prepare_checks(self):
        hk = self.hk
        self.leaves = {key: _gram_leaves(hk._gmath, hk.diff, *key)
                       for key in self.config_paths}
        self.worst_rel = self.worst_scaled = 0.0

    def request(self, i):
        slot, variant, _, c = self._request_args(i)
        return self.hk.cli.main([
            "gram", "--features", str(self.feature_paths[slot]),
            "--config", str(self.config_paths[variant, c]),
            "--out", str(self.out_path),
        ])

    def pairs(self, i):
        n = self._request_args(i)[2]
        return n * (n + 1) // 2

    def check(self, i, rc):
        if rc != 0:
            return f"exit code {rc}"
        slot, variant, n, c = self._request_args(i)
        with open(self.out_path, newline="") as fh:
            rows = [[complex(v) for v in row] for row in csv.reader(fh)]
        G = np.array(rows, dtype=np.complex128)
        if G.shape != (n, n):
            return f"shape {G.shape}, expected {(n, n)}"
        if not np.all(np.isfinite(G.view(np.float64))):
            return "non-finite entries"
        if not (np.array_equal(G.real, G.real.T) and np.array_equal(G.imag, -G.imag.T)):
            return "not bit-exactly Hermitian"
        diag = np.diagonal(G)
        if np.any(diag.imag != 0.0) or np.any(diag.real <= 0.0):
            return "diagonal not real and positive"
        report = self.hk.checks.psd_report(G, tol=PSD_TOL)
        if not report.passed:
            return f"PSD certificate failed: min_eig {report.min_eig}"
        gm = self.hk._gmath
        leaves = self.leaves[variant, c]
        rng = np.random.default_rng([self.seed, i, 1])
        picks = [(k, k) for k in rng.integers(n, size=1)]
        picks += [tuple(rng.integers(n, size=2)) for _ in range(ENTRIES_CHECKED - 1)]
        x = self.features[slot]
        for a, b in picks:
            ea = gm.embed(leaves, gm.exp0(list(map(float, x[a])), c))
            eb = gm.embed(leaves, gm.exp0(list(map(float, x[b])), c))
            ref = float(gm.kernel(leaves, ea, eb))
            got = G[a, b]
            rel = abs(got - ref) / abs(ref)
            kappa = entry_condition(gm, leaves, ea, eb)
            self.worst_rel = max(self.worst_rel, rel)
            self.worst_scaled = max(self.worst_scaled, rel / kappa)
            if got.imag != 0.0 or not rel <= ENTRY_REL_TOL * kappa:
                return (f"entry ({a},{b}) = {got} but the _gmath path gives {ref!r}:"
                        f" relative error {rel:.3g} > {ENTRY_REL_TOL} * condition"
                        f" {kappa:.3g} ({variant}, c={c}, n={n})")
        return None

    def summary(self):
        return (f"sampled entries vs _gmath: worst relative error {self.worst_rel:.3g},"
                f" worst relative error / condition {self.worst_scaled:.3g}")


# --- train ----------------------------------------------------------------

TRAIN_CONFIG = HERE / "train.json"
BASELINE_MARGIN = 0.01    # final accuracy >= Euclidean baseline - margin


class TrainWorkload:
    """Repeated in-process `hypkernels train` runs of the pinned quickstart.

    The run's `--seed` is the workload seed, so every request of a run
    repeats the same training job.
    """

    batch = 1
    nonzero = ("cli.main", "learning.train", "learning.evaluate", "diff.step")
    zero = ("kernels.gram", "kernels.evaluate", "rkhs.multiplier_b",
            "rkhs.dbr_kernel")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self, hk):
        self.hk = SimpleNamespace(**hk)
        self.config = json.loads(TRAIN_CONFIG.read_text())
        self.out_dir = self.workdir / "train_out"

    def prepare_checks(self):
        cfg = self.config
        d, e = cfg["dataset"], cfg["episode"]
        learning = self.hk.learning
        dataset = learning.gen_tree_dataset(
            d["seed"], d["depth"], d["branching"], d["dim"], d["noise_sigma"],
            d["samples_per_leaf"], d["step_length"],
        )
        self.baseline = learning.evaluate(
            None, dataset, e["n_way"], e["n_shot"], e["n_query"],
            cfg["eval"]["episodes"], cfg["eval"]["seed"], baseline="euclidean",
        ).accuracy
        self.accuracies = []

    def request(self, i):
        return self.hk.cli.main([
            "train", "--config", str(TRAIN_CONFIG), "--out", str(self.out_dir),
            "--seed", str(self.seed),
        ])

    def pairs(self, i):
        cfg = self.config
        e = cfg["episode"]
        per_episode = e["n_way"] * e["n_way"] * e["n_query"]
        # one scored episode per step, plus the initial and final evals
        episodes = cfg["optimizer"]["steps"] + 2 * cfg["eval"]["episodes"]
        return per_episode * episodes

    def check(self, i, rc):
        if rc != 0:
            return f"exit code {rc}"
        with open(self.out_dir / "loss_trace.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        losses = [float(row[1]) for row in rows]
        if len(losses) != self.config["optimizer"]["steps"]:
            return f"loss trace has {len(losses)} rows"
        if not all(math.isfinite(v) for v in losses):
            return "non-finite loss in the trace"
        final = json.loads((self.out_dir / "eval.json").read_text())["final"]
        accuracy = final["accuracy"]
        self.accuracies.append(accuracy)
        if not accuracy >= self.baseline - BASELINE_MARGIN:
            return f"final accuracy {accuracy} below Euclidean baseline {self.baseline}"
        return None

    def summary(self):
        return f"final accuracy {self.accuracies}, Euclidean baseline {self.baseline}"


# --- eval -----------------------------------------------------------------

EVAL_PARAMS = HERE / "eval_params.json"
EVAL_CHECK_EVERY = 256    # complex-path check on every 256th episode


def tree_dataset(rng, depth, branching, dim, noise_sigma, samples_per_leaf,
                 step_length):
    """Hierarchical classes: leaves of a random tree plus Gaussian noise."""
    level = [np.zeros(dim)]
    for _ in range(depth):
        children = []
        for parent in level:
            steps = rng.standard_normal((branching, dim))
            steps /= np.linalg.norm(steps, axis=1, keepdims=True)
            children.extend(parent + step_length * steps)
        level = children
    features = np.concatenate([
        leaf + noise_sigma * rng.standard_normal((samples_per_leaf, dim))
        for leaf in level
    ])
    labels = np.repeat(np.arange(len(level)), samples_per_leaf)
    return features, labels


class EvalWorkload:
    """Repeated one-episode `learning.evaluate` calls with fixed parameters.

    The parameters are a trained quickstart kernel stored next to this
    module, so setup trains nothing.  Request i evaluates the episode of
    seed `base + i`.
    """

    batch = 1
    nonzero = ("learning.evaluate", "learning.sample_episode")
    zero = ("cli.main", "kernels.gram", "kernels.evaluate",
            "rkhs.multiplier_b", "rkhs.dbr_kernel", "diff.grad", "diff.step",
            "learning.train")

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self, hk):
        self.hk = SimpleNamespace(**hk)
        spec = json.loads(EVAL_PARAMS.read_text())
        self.run = spec["run"]
        params = spec["params"]
        p = self.hk.diff.ParamVector(
            np.array(params["pole_raws"]), np.array(params["weight_logits"]),
            np.array(params["radial_raws"]), fixed_c=params["fixed_c"],
        )
        run_config = self.hk.learning.RunConfig(**self.run)
        self.kconfig = self.hk.learning.params_to_kernel_config(run_config, p)
        self.projection = self.hk.learning.Projection("exp0")
        rng = np.random.default_rng(self.seed)
        features, labels = tree_dataset(rng, **spec["dataset"])
        self.dataset = self.hk.learning.LabeledSet(features, labels)
        self.base_seed = int(rng.integers(2**31))

    def prepare_checks(self):
        self.rescored = 0

    def request(self, i):
        r = self.run
        return self.hk.learning.evaluate(
            self.kconfig, self.dataset, r["n_way"], r["n_shot"], r["n_query"],
            episodes=1, seed=self.base_seed + i, mode=r["score_mode"],
            projection=self.projection,
        )

    def pairs(self, i):
        r = self.run
        return r["n_way"] * r["n_way"] * r["n_query"]

    def check(self, i, res):
        r = self.run
        queries = r["n_way"] * r["n_query"]
        correct = res.accuracy * queries
        if not (0 <= correct <= queries and abs(correct - round(correct)) < 1e-9):
            return f"accuracy {res.accuracy} is not a count out of {queries}"
        if res.mean_loss is None or not math.isfinite(res.mean_loss):
            return f"mean loss {res.mean_loss}"
        if i % EVAL_CHECK_EVERY == 0:
            self.rescored += 1
            expected = self._complex_path_correct(self.base_seed + i)
            if round(correct) != expected:
                return f"episode {i}: {round(correct)} correct, complex path gives {expected}"
        return None

    def summary(self):
        return f"{self.rescored} episodes re-scored through kernels.evaluate"

    def _complex_path_correct(self, seed):
        """Correct count of one episode scored with `kernels.evaluate`."""
        hk = self.hk
        r = self.run
        episode = hk.learning.sample_episode(
            np.random.default_rng(seed), self.dataset, r["n_way"], r["n_shot"],
            r["n_query"],
        )
        curvature = self.kconfig.get_curvature()

        def point(x):
            return hk.geometry.exp0(hk.geometry.TangentVector(x), curvature)

        def k(a, b):
            return hk.kernels.evaluate(self.kconfig, a, b).real

        protos = [point(s) for s in episode.support.mean(axis=1)]
        proto_diag = [k(p, p) for p in protos]
        correct = 0
        for cls in range(episode.n_way):
            for q in episode.query[cls]:
                zq = point(q)
                kqq = k(zq, zq)
                dist = [max(kqq + kpp - 2.0 * k(zq, p), 0.0)
                        for p, kpp in zip(protos, proto_diag)]
                correct += int(np.argmin(dist) == cls)
        return correct


WORKLOADS = {"gram": GramWorkload, "train": TrainWorkload, "eval": EvalWorkload}
