"""Mutated files: each reader loads a mutant or raises DataFormatError naming it.

A valid TFCK checkpoint, MMFT feature file, label CSV, prediction CSV and
manifest, each written by the package's own writer, are mutated by byte
flips, truncation and extension. Any other exception fails the test. On
those mutants, on ones with one CSV field swapped (also deep in a 2,000-row
prediction file) and on ones with a blank line, CRLF line ends, a trailing
comma or no final newline, the label and prediction readers must also give
what the row-wise readers in ``tests/_reference.py`` give: the same arrays,
or the same message. An experiment config with any one value swapped for an
arbitrary JSON value reads or raises DataFormatError.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmexpr.checkpoint import load_checkpoint, save_checkpoint
from mmexpr.data import (
    FeatureTrack,
    LabelTrack,
    load_labels,
    load_manifest,
    read_feature_file,
    save_labels,
    write_feature_file,
)
from mmexpr.ensemble import PredictionTrack, read_predictions, write_predictions
from mmexpr.errors import DataFormatError
from mmexpr.fileio import write_json
from mmexpr.training import ExperimentConfig

from tests import _reference as ref
from tests.test_data import swap_one_value

FRAMES = 6


def _write_valid(fmt: str, path: str) -> None:
    rng = np.random.default_rng(0)
    if fmt == "checkpoint":
        save_checkpoint({"fusion.weight": rng.normal(size=(3, 2)).astype(np.float32),
                         "fusion.bias": rng.normal(size=2).astype(np.float32),
                         "scalar": np.float32(0.5).reshape(())}, path)
    elif fmt == "features":
        present = np.array([True, False, True, True, False, True])
        write_feature_file(FeatureTrack("v", "mae", rng.normal(size=(FRAMES, 3))
                                        .astype(np.float32), present), path)
    elif fmt == "labels":
        save_labels(LabelTrack("v", np.array([0, 1, -1, 7, 7, 3])), path)
    elif fmt == "manifest":
        write_json(path, {"videos": [{"id": "v", "n_frames": FRAMES, "label_file": "v.csv",
                                      "features": {"mae": "v.mae.mmft"}}],
                          "splits": {"train": ["v"], "val": ["v"]}})
    else:
        write_predictions(PredictionTrack.from_probs("v", rng.dirichlet(np.ones(8), FRAMES)),
                          path)


READERS = {
    "checkpoint": load_checkpoint,
    "features": read_feature_file,
    "labels": lambda path: load_labels(path, n_frames=FRAMES),  # as load_video reads it
    "predictions": read_predictions,
    "manifest": load_manifest,
}

ORACLES = {
    "labels": lambda path: ref.load_labels(path, n_frames=FRAMES),
    "predictions": ref.read_predictions,
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {}
    for fmt in READERS:
        path = root / f"{fmt}.valid"
        _write_valid(fmt, str(path))
        READERS[fmt](str(path))  # the unmutated file loads
        files[fmt] = path.read_bytes()
    return root, files


@st.composite
def mutants(draw, raw: bytes) -> bytes:
    kind = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "extend":
        return raw + draw(st.binary(min_size=1, max_size=64))
    out = bytearray(raw)
    for at, mask in draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                                  min_size=1, max_size=4)):
        out[at] ^= mask
    return bytes(out)


# the last two lines are made of the bytes of a plain file, which NumPy's reader
# parses: it must accept and refuse there what int and float do
_FIELDS = st.integers(-3, 10).map(lambda v: str(v).encode()) | st.sampled_from(
    [b"", b"x", b" 3", b'"4"', b"0.5", b"nan", b"inf", b"1e400", b"99999999999999999999",
     b"9223372036854775808", b"-9223372036854775809", b"+3", b"1_0",
     b"1.0", b"1e0", b"007", b"-0", b"-9223372036854775808",
     b"5.", b".5", b".", b"1e", b"1E+05", b"1e-400"])


@st.composite
def field_swaps(draw, raw: bytes) -> bytes:
    """``raw`` with one CSV field replaced, so that the readers' checks on values
    are reached more often than byte flips reach them."""
    lines = [line.split(b",") for line in raw.split(b"\n")]
    fields = lines[draw(st.integers(0, len(lines) - 1))]
    fields[draw(st.integers(0, len(fields) - 1))] = draw(_FIELDS)
    return b"\n".join(b",".join(fields) for fields in lines)


@st.composite
def line_changes(draw, raw: bytes) -> bytes:
    """``raw`` with a blank line inserted, its first k line ends made CRLF, a
    comma appended to one line or its final newline dropped."""
    kind = draw(st.sampled_from(["blank", "crlf", "comma", "unterminated"]))
    if kind == "crlf":
        return raw.replace(b"\n", b"\r\n", draw(st.integers(1, raw.count(b"\n"))))
    if kind == "unterminated":
        return raw[:-1]
    lines = raw.split(b"\n")
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "blank":
        lines.insert(at, b"")
    else:
        lines[at] += b","
    return b"\n".join(lines)


@pytest.mark.parametrize("fmt", list(READERS))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutant_loads_or_raises_data_format_error(valid_files, fmt, data):
    root, files = valid_files
    path = root / f"{fmt}.mutant"
    path.write_bytes(data.draw(mutants(files[fmt])))
    try:
        READERS[fmt](str(path))
    except DataFormatError as exc:
        assert str(path) in str(exc)


@pytest.mark.parametrize("fmt", list(ORACLES))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutant_reads_as_the_row_wise_reader_reads_it(valid_files, fmt, data):
    root, files = valid_files
    path = root / f"{fmt}.differential"
    raw = files[fmt]
    path.write_bytes(data.draw(mutants(raw) | field_swaps(raw) | line_changes(raw)))
    assert ref.read_outcome(READERS[fmt], path) == ref.read_outcome(ORACLES[fmt], path)


@pytest.fixture(scope="module")
def long_predictions(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz-long") / "long.csv"
    rng = np.random.default_rng(1)
    write_predictions(PredictionTrack.from_probs("v", rng.dirichlet(np.ones(8), 2000)), str(path))
    return path, path.read_bytes()


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_field_swap_deep_in_a_long_file_reads_as_the_row_wise_reader_reads_it(
        long_predictions, data):
    path, raw = long_predictions
    mutant = path.with_suffix(".mutant")
    mutant.write_bytes(data.draw(field_swaps(raw)))
    assert ref.read_outcome(read_predictions, mutant) == ref.read_outcome(ref.read_predictions, mutant)


def _valid_config_doc():
    return {
        "manifest": "manifest.json", "output_dir": "run", "seed": 3,
        "features": {"visual": ["synthvis", "mae"], "audio": ["synthaud"]},
        "registry": {"synthvis": {"dim": 8, "modality": "visual"},
                     "synthaud": {"dim": 4, "modality": "audio"}},
        "model": {"encoder": "transformer", "d_model": 16, "head": [12, 8], "classes": 8,
                  "segment": {"l": 6, "p": 3}, "head_dropout": 0.1,
                  "transformer": {"layers": 1, "heads": 2, "dropout": 0.1, "ffn_dim": 32,
                                  "positional_encoding": True},
                  "lstm": {"hidden": 10, "layers": 1}},
        "training": {"lr": 1e-3, "epochs": 2, "alpha": 5.0,
                     "batch_segments": 1, "batch_videos": 1},
    }


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_config_with_one_value_swapped_reads_or_raises_data_format_error(data):
    ExperimentConfig.from_json(_valid_config_doc())  # the unmutated config reads
    try:
        ExperimentConfig.from_json(swap_one_value(data, _valid_config_doc()))
    except DataFormatError:
        pass
