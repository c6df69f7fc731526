"""CSV input and output: `load_dataset` against a per-line reference parser,
`save_csv`'s bytes, and the memory a load holds."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmargin.data import Dataset, load_dataset, save_csv, synth_margin_dataset
from dpmargin.errors import DataFormatError, DimensionError, LabelError


def reference_load_csv(path) -> Dataset:
    """The per-line CSV loader that `load_dataset` replaced, kept as the oracle."""
    rows, labels = [], []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    width = None
    for ln, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        tokens = [t.strip() for t in raw.split(",")]
        if len(tokens) < 2:
            raise DataFormatError("expected at least one feature and a label", line=ln)
        try:
            value = float(tokens[-1])
        except ValueError as exc:
            raise DataFormatError(f"cannot parse label {tokens[-1]!r}", line=ln) from exc
        if value not in (-1.0, 0.0, 1.0):
            raise LabelError(f"label must be in {{-1, 0, +1}}, got {tokens[-1]}", line=ln)
        labels.append(-1 if value <= 0.0 else 1)
        try:
            row = [float(t) for t in tokens[:-1]]
        except ValueError as exc:
            raise DataFormatError(f"cannot parse feature in {raw!r}", line=ln) from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DimensionError(f"line {ln}: row has {len(row)} features, expected {width}")
        rows.append(row)
    feats = np.asarray(rows, dtype=np.float64)
    if feats.shape[0] < 2:
        raise DataFormatError(f"need at least two data rows in {path}")
    if not np.all(np.isfinite(feats)):
        raise DataFormatError("features contain NaN/Inf")
    bound = float(np.linalg.norm(feats, axis=1).max())
    if bound <= 0.0:
        bound = 1.0
    return Dataset(feats, np.asarray(labels, dtype=int), bound)


def outcome(load, path):
    """What a loader makes of a file: the dataset's bits, or the error raised."""
    try:
        ds = load(path)
    except (DataFormatError, DimensionError, ValueError) as exc:
        return ("error", type(exc), getattr(exc, "line", None), str(exc))
    return ("ok", ds.features.view(np.uint64).tobytes(), ds.features.shape,
            ds.labels.tolist(), ds.norm_bound)


def assert_same_as_reference(path):
    expected = outcome(reference_load_csv, path)
    assert outcome(load_dataset, path) == expected
    return expected


# ------------------------------------------------------------ generated files

def _float_token(value: float) -> st.SearchStrategy:
    return st.sampled_from([repr(value), f"{value:.3e}", f"{value:.17g}", f"{value:+.6f}"])


_number = st.one_of(
    st.floats(-1e150, 1e150).flatmap(_float_token),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_0", "2_500.5", "-0", "-0.0", ".5", "5.", "+1.5", "1e-300", "4.9e-324"]),
)
_label = st.sampled_from(["0", "1", "+1", "-1", "1.0", "-1.0", "+0", "-0", "0.0", "1e0"])
_pad = st.sampled_from(["", "", " ", "\t", "  ", " \t"])


@st.composite
def csv_files(draw):
    """Valid CSV text: padded tokens, mixed line endings, blank lines."""
    n, d = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    lines = []
    for _ in range(n):
        tokens = [draw(_number) for _ in range(d)] + [draw(_label)]
        lines.append(",".join(draw(_pad) + t + draw(_pad) for t in tokens))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=150, deadline=None)
@given(text=csv_files())
def test_load_matches_reference_on_valid_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode())
    assert assert_same_as_reference(path)[0] == "ok"


# Inserted after a comma or at the start of a line: each either breaks the
# file or is a line break that only `str.splitlines` honours.
_CORRUPTIONS = ["abc", "", "2,", "#", "1,", "nan", "1e400", "\x0b", "\x0c", "\x1c", "\x1e",
                "\x85", "\u2028", "\u2029", "\xa0", "\ufeff", "\x00", "\r", "\n  \n"]


@settings(max_examples=150, deadline=None)
@given(text=csv_files(), junk=st.sampled_from(_CORRUPTIONS), where=st.integers(0, 10**6))
def test_load_matches_reference_on_corrupted_files(tmp_path_factory, text, junk, where):
    cuts = [0] + [i + 1 for i, ch in enumerate(text) if ch in ",\n"]
    at = cuts[where % len(cuts)]
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes((text[:at] + junk + text[at:]).encode())
    assert_same_as_reference(path)


@pytest.mark.parametrize("text, error, line", [
    ("1.0,1\n\nfoo,1\n", DataFormatError, 3),  # bad token after a blank line
    ("1.0,2.0,1\n1.0,1\n", DimensionError, None),  # ragged row
    ("1.0,1\n2.0,3\n", LabelError, 2),
    ("1.0,2.0,1,\n3.0,4.0,-1,\n", DataFormatError, 1),  # trailing comma
    ("1.0\n2.0\n", DataFormatError, 1),  # one column
    ("1.0,1\n# note\n2.0,-1\n", DataFormatError, 2),
    ("", DataFormatError, None),
    ("1.0,0.5,+1\n", DataFormatError, None),  # one row
    ("1.0,\x0c1\n2.0,-1\n", DataFormatError, 1),  # form feed splits line 1
    ("nan,1\n2.0,-1\n", DataFormatError, None),
])
def test_load_rejects_like_reference(tmp_path, text, error, line):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    kind, exc_type, exc_line, _ = assert_same_as_reference(path)
    assert (kind, exc_type, exc_line) == ("error", error, line)


@pytest.mark.parametrize("text", [
    "1.0,1\n   \n2.0,-1\n",  # whitespace-only line
    "1_0,1\n2.0,-1\n",
    "1.0 , 2.0 ,+1\r\n-3.0,\t4.0\t,0\r\n",
    "1.0,2.0,1\x0c\n3.0,4.0,-1\n",  # form feed ends line 1 for splitlines
])
def test_load_accepts_like_reference(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    assert assert_same_as_reference(path)[0] == "ok"


# ------------------------------------------------------------ writing

def test_save_csv_golden_bytes(tmp_path):
    ds = Dataset([[-0.0, 1e-300, 1.0], [0.25, -0.0, -1e-300]], [-1, 1], 1.0)
    path = tmp_path / "g.csv"
    save_csv(ds, path)
    assert path.read_bytes() == b"-0.0,1e-300,1.0,-1\n0.25,-0.0,-1e-300,+1\n"
    back = load_dataset(path)
    assert back.features.view(np.uint64).tolist() == ds.features.view(np.uint64).tolist()


# ------------------------------------------------------------ memory

def test_load_holds_one_matrix(tmp_path):
    ds, _ = synth_margin_dataset(2000, 400, 0.25, 15, seed=7)
    path = tmp_path / "m.csv"
    save_csv(ds, path)
    matrix = 2000 * 400 * 8
    del ds
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.n == 2000 and loaded.dim == 400
    assert peak < 2.5 * matrix  # the n x (d+1) table and the signed rows
    assert held < 1.2 * matrix
