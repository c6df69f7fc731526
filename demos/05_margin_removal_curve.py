"""Margin vs greedy outlier removal, reproduced on synthetic data.

Five planted label flips hold the normalized margin at zero; removing them
one by one (worst normalized margin first) releases the planted margin.
Uses the CLI, whose CSV files live in a temporary directory that is
removed once the curve is printed.
"""

import csv
import subprocess
import sys
import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory(prefix="dpmargin_demo_") as tmp:
    data = Path(tmp) / "data.csv"
    curve = Path(tmp) / "curve.csv"

    subprocess.run([sys.executable, "-m", "dpmargin", "synth", "--n", "120", "--d", "8",
                    "--gamma", "0.35", "--outliers", "5", "--seed", "17",
                    "--out", str(data)], check=True)
    subprocess.run([sys.executable, "-m", "dpmargin", "margin-curve", "--dataset",
                    str(data), "--removals", "10", "--seed", "1",
                    "--out", str(curve)], check=True)

    print("normalized margin after each greedy removal:\n")
    with open(curve) as fh:
        for row in csv.DictReader(fh):
            bar = "#" * int(80 * float(row["normalized_margin"]))
            print(f"  removed {row['removed_count']:>2}: "
                  f"{float(row['normalized_margin']):.4f} {bar}")
