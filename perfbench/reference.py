"""Output check: compare a cell's CSV files with a committed reference.

A reference holds, per file, its header, its row count and one entry per
column. `runtime.txt` is skipped: it is the one file the program lets differ
between reruns.

* Integer and label columns are stored as a digest and must match exactly.
* Float columns are stored as a digest plus their values (or, past
  FULL_FLOAT_ROWS rows, FLOAT_SAMPLES evenly spaced values and the column
  sum). A column whose digest matches passes outright; otherwise each stored
  value must match within

      |a - b| <= RTOL * max(|a|, |b|) + ATOL_PER_ARRIVAL * arrivals

  and, for sampled columns, the sum within the sum of those bounds.

Where the tolerance comes from: the two compute backends agree on every
per-arrival dual value to a relative 1e-10 (the backend-equivalence
tolerance), so a sum of positive per-arrival values over a cell also agrees
to 1e-10 relative. The files print 9 significant digits, and one unit in the
ninth digit is at most 1e-8 of the value, so RTOL = 1e-8 + 1e-10. Regret is a
difference of two such sums and can be far smaller than either; per-arrival
dual values here are below 1, so its absolute drift is at most 1e-10 times
the cell's arrival count, which is the ATOL term.

Seeds without a committed reference fall back to `invariant_misses`, which
checks relations the outputs must satisfy at any seed, and to the rule that
every repetition of a run writes byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SKIPPED_FILES = frozenset({"runtime.txt"})
INT_COLUMNS = frozenset(
    {"seed", "arrivals", "item", "count", "hour", "type", "t", "checkpoint",
     "purchased"})
LABEL_COLUMNS = frozenset({"mode", "config_hash", "label", "phase"})
RTOL = 1e-8 + 1e-10
ATOL_PER_ARRIVAL = 1e-10
FULL_FLOAT_ROWS = 2000
FLOAT_SAMPLES = 256


def _digest(values: list[str]) -> str:
    return hashlib.sha256("\n".join(values).encode()).hexdigest()[:16]


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",") if lines else []
    columns = [[] for _ in header]
    for line in lines[1:]:
        for col, value in zip(columns, line.split(",")):
            col.append(value)
    return header, columns


def _sample_rows(rows: int) -> np.ndarray:
    return np.unique(np.linspace(0, rows - 1, FLOAT_SAMPLES).astype(np.int64))


def _float_sum(values: list[str]) -> float:
    return float(sum(float(v) for v in values if v))


def cell_files(cell_dir: Path) -> list[Path]:
    return sorted(p for p in cell_dir.iterdir() if p.name not in SKIPPED_FILES)


def cell_arrivals(cell_dir: Path) -> int:
    """The `arrivals` figure in a cell's summary.csv (0 when it has none)."""
    path = cell_dir / "summary.csv"
    if not path.exists():
        return 0
    header, columns = read_csv(path)
    if "arrivals" not in header:
        return 0
    return int(columns[header.index("arrivals")][0])


def describe_cell(cell_dir: Path) -> dict:
    """The reference entry for one cell directory."""
    files = {}
    for path in cell_files(cell_dir):
        header, columns = read_csv(path)
        entry = {"header": header, "rows": len(columns[0]) if columns else 0,
                 "columns": {}}
        for name, values in zip(header, columns):
            if name in INT_COLUMNS or name in LABEL_COLUMNS:
                entry["columns"][name] = {"digest": _digest(values)}
            elif len(values) <= FULL_FLOAT_ROWS:
                entry["columns"][name] = {"digest": _digest(values), "values": values}
            else:
                rows = _sample_rows(len(values))
                entry["columns"][name] = {
                    "digest": _digest(values),
                    "samples": [values[i] for i in rows],
                    "sum": _float_sum(values),
                    "abs_sum": float(sum(abs(float(v)) for v in values if v)),
                }
        files[path.name] = entry
    return {"arrivals": cell_arrivals(cell_dir), "files": files}


def _value_miss(ref: str, got: str, atol: float) -> bool:
    if ref == got:
        return False
    try:
        a, b = float(ref), float(got)
    except ValueError:
        return True
    return not abs(a - b) <= RTOL * max(abs(a), abs(b)) + atol


def compare_cell(reference: dict, cell_dir: Path, cell: str) -> list[str]:
    """Misses of `cell_dir` against its reference entry, one line each."""
    misses = []
    atol = ATOL_PER_ARRIVAL * max(reference["arrivals"], 1)
    have = {p.name for p in cell_files(cell_dir)} if cell_dir.is_dir() else set()
    for name in sorted(set(reference["files"]) ^ have):
        state = "missing" if name in reference["files"] else "unexpected"
        misses.append(f"{cell}/{name}: file {state}")
    for name, ref in sorted(reference["files"].items()):
        if name not in have:
            continue
        header, columns = read_csv(cell_dir / name)
        if header != ref["header"]:
            misses.append(f"{cell}/{name}: header {header} != {ref['header']}")
            continue
        rows = len(columns[0]) if columns else 0
        if rows != ref["rows"]:
            misses.append(f"{cell}/{name}: {rows} rows, reference has {ref['rows']}")
            continue
        for col, values in zip(header, columns):
            entry = ref["columns"][col]
            if _digest(values) == entry["digest"]:
                continue
            if "values" in entry:
                bad = [i for i, (r, g) in enumerate(zip(entry["values"], values))
                       if _value_miss(r, g, atol)]
            elif "samples" in entry:
                bad = [int(i) for i, r in zip(_sample_rows(rows), entry["samples"])
                       if _value_miss(r, values[i], atol)]
                if not bad and not abs(_float_sum(values) - entry["sum"]) <= (
                        RTOL * entry["abs_sum"] + atol * rows):
                    bad = ["sum"]
            else:
                misses.append(f"{cell}/{name}: column {col} differs from the "
                              "reference (exact match required)")
                continue
            if bad:
                misses.append(f"{cell}/{name}: column {col} outside the float "
                              f"tolerance at rows {bad[:5]}")
    return misses


def invariant_misses(cell_dir: Path, cell: str) -> list[str]:
    """Relations every cell's outputs satisfy, whatever the seed."""
    misses = []
    if not cell_dir.is_dir() or not any(cell_dir.iterdir()):
        return [f"{cell}: no output files"]
    arrivals = cell_arrivals(cell_dir)
    hist = cell_dir / "arrivals_hist.csv"
    if hist.exists():
        header, columns = read_csv(hist)
        counted = sum(int(c) for c in columns[header.index("count")])
        if counted != arrivals:
            misses.append(f"{cell}/arrivals_hist.csv: counts sum to {counted}, "
                          f"summary.csv says {arrivals} arrivals")
    selections = cell_dir / "selections.csv"
    if selections.exists():
        header, columns = read_csv(selections)
        assigned = sum(int(c) for c in columns[header.index("count")])
        if assigned > arrivals:
            misses.append(f"{cell}/selections.csv: {assigned} assignments for "
                          f"{arrivals} arrivals")
    trace = cell_dir / "trace.csv"
    if trace.exists():
        _, columns = read_csv(trace)
        if len(columns[0]) != arrivals:
            misses.append(f"{cell}/trace.csv: {len(columns[0])} rows for "
                          f"{arrivals} arrivals")
    plan = cell_dir / "plan.csv"
    if plan.exists():
        header, columns = read_csv(plan)
        starts, ends = columns[header.index("t_start")], columns[header.index("t_end")]
        if not starts or float(starts[0]) != 0.0 or starts[1:] != ends[:-1]:
            misses.append(f"{cell}/plan.csv: segments do not tile the horizon")
    return misses


def file_digests(cell_dir: Path) -> dict[str, str]:
    """Whole-file digests, for the byte-identity check between repetitions."""
    if not cell_dir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in cell_files(cell_dir)}


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed-{seed}.json"


def load_reference(workload: str, seed: int) -> dict | None:
    """The committed reference cells for a workload and seed, if any."""
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())["cells"]
