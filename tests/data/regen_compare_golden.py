"""Rewrite ``compare_golden.json`` from the command line, in one command:

    PYTHONPATH=src python tests/data/regen_compare_golden.py

Each case runs ``compare`` on a shipped scene in one mode at one seed, at
the default sample counts and, at seed 0, at each pair of ``COUNTS``,
exactly as ``tests/test_cli.py::test_compare_output_matches_golden`` does,
and records its exit code, stdout and CSV table.  Run it only when the
sampler or a kernel changes on purpose, and say so in CHANGES.md.
"""

import json
import pathlib
import tempfile

from click.testing import CliRunner

from dihedral_lab.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCENES = ("cube_id", "square_id", "octahedron_id", "cut_cube_id")
MODES = ("conclusions", "hypotheses")
SEEDS = (0, 3, 7)
# fewer and more reported samples than the least that are checked (8 / 4)
COUNTS = (("--per-face", "2", "--per-edge", "1"), ("--per-face", "20", "--per-edge", "9"))


def case_output(scene: str, mode: str, seed: int, counts: tuple = ()) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        csv = pathlib.Path(tmp) / "rows.csv"
        args = ["compare", "--scene", str(ROOT / "scenes" / f"{scene}.json"),
                "--seed", str(seed), "--csv", str(csv), *counts]
        result = CliRunner().invoke(main, args + (["--conclusions"] if mode == "conclusions"
                                                  else []))
        return {"csv": csv.read_text(), "exit_code": result.exit_code, "stdout": result.stdout}


def main_() -> None:
    cases = [(scene, mode, seed, ()) for scene in SCENES for mode in MODES for seed in SEEDS]
    cases += [(scene, mode, 0, counts) for scene in SCENES for mode in MODES for counts in COUNTS]
    golden = {" ".join([scene, mode, "seed", str(seed), *counts]):
              case_output(scene, mode, seed, counts) for scene, mode, seed, counts in cases}
    path = pathlib.Path(__file__).with_name("compare_golden.json")
    path.write_text(json.dumps(dict(sorted(golden.items())), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {path}")


if __name__ == "__main__":
    main_()
