"""Rewrite the committed golden files, or compare them with a fresh run.

    PYTHONPATH=src python tests/golden/regenerate.py           # rewrite them
    PYTHONPATH=src python tests/golden/regenerate.py --check   # compare; exit 1 on a difference

Without PYTHONPATH the script runs the installed `hypkernels`.  Each set
of golden files is the output of one `hypkernels` command:

- `quickstart/`, `train_curvature/`, `zsl/`, `sts/`: `train` on
  `configs/quickstart.json`, with the keys of `TRAIN_RUNS` replaced;
- `check/report.ndjson`: `check --suite all` on `{"version": 1}`;
- `gram/<variant>_c<c>.csv`: `gram` of each variant at each curvature of
  `GRAM_CURVATURES` on the committed 16 x 8 `gram/features.csv` (an input,
  never rewritten), the kernel's other keys at their defaults.

A change that moves any of their bytes is a declared replay break.
"""
import argparse
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
QUICKSTART = GOLDEN.parents[1] / "configs" / "quickstart.json"
TRAIN_FILES = ("loss_trace.csv", "params.json", "eval.json")
# Each training set is the quickstart run with these keys replaced.
TRAIN_RUNS = {
    "quickstart": {},
    "train_curvature": {"train_curvature": True},
    "zsl": {"task": "zsl"},
    "sts": {"task": "sts"},
}
CHECK_CONFIG = {"version": 1}
GRAM_VARIANTS = ("da", "ahl", "ahpoly", "ahrbf", "ahlap", "base", "ahrad")
GRAM_CURVATURES = (0.02, 1.0)
SETS = (*TRAIN_RUNS, "check", "gram")


def produce(name: str, work: Path) -> dict:
    """Run the command behind set `name` inside `work`; its files' bytes by name."""
    from hypkernels import cli

    config = work / "config.json"
    if name == "gram":
        return {f"{variant}_c{c}.csv": _gram(cli, variant, c, work)
                for variant in GRAM_VARIANTS for c in GRAM_CURVATURES}
    if name == "check":
        config.write_text(json.dumps(CHECK_CONFIG))
        out, files = work, ("report.ndjson",)
        argv = ["check", "--suite", "all", "--config", str(config),
                "--out", str(work / "report.ndjson")]
    else:
        config.write_text(json.dumps(
            {**json.loads(QUICKSTART.read_text()), **TRAIN_RUNS[name]}))
        out, files = work / "run", TRAIN_FILES
        argv = ["train", "--config", str(config), "--out", str(out)]
    if cli.main(argv) != 0:
        raise RuntimeError(f"hypkernels {' '.join(argv)} failed")
    return {f: (out / f).read_bytes() for f in files}


def _gram(cli, variant: str, c: float, work: Path) -> bytes:
    """The bytes of `gram` of one variant at curvature c on the golden features."""
    config, out = work / "gram.json", work / "gram.csv"
    config.write_text(json.dumps({"version": 1, "curvature": c, "kernel": {"variant": variant}}))
    argv = ["gram", "--features", str(GOLDEN / "gram" / "features.csv"),
            "--config", str(config), "--out", str(out)]
    if cli.main(argv) != 0:
        raise RuntimeError(f"hypkernels {' '.join(argv)} failed")
    return out.read_bytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the golden files instead of writing them")
    args = parser.parse_args(argv)
    differ = []
    for name in SETS:
        with tempfile.TemporaryDirectory() as work:
            fresh = produce(name, Path(work))
        for f, data in fresh.items():
            path = GOLDEN / name / f
            if not args.check:
                path.parent.mkdir(exist_ok=True)
                path.write_bytes(data)
            elif not path.exists() or path.read_bytes() != data:
                differ.append(path)
    for path in differ:
        print(f"differs: {path}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
