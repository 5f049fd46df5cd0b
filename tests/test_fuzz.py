"""Parser fuzzing: for arbitrary bytes, every file reader either parses or
raises a FedscError with its stable code, never a raw numpy, struct,
KeyError or UnicodeDecodeError."""

import struct

from hypothesis import HealthCheck, given, settings, strategies as st

from fedsc.cli import _load_config_file, _load_constants
from fedsc.data import load_dataset
from fedsc.errors import FedscError
from fedsc.federation import CSV_HEADER, read_metrics_csv

# bounded and derandomized so the module adds about two seconds to tier-1,
# the same examples every run
FUZZ = settings(max_examples=60, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

VALUE_CHARS = "0123456789.-+eE nainf,x"


def parses_or_fails_cleanly(parse, path, data, codes):
    path.write_bytes(data)
    try:
        parse(path)
    except FedscError as exc:
        assert exc.code in codes, f"{type(exc).__name__}: {exc}"


def text_lines(line):
    """Newline-joined lists of ``line`` draws, as UTF-8 bytes."""
    return st.lists(line, max_size=8).map(lambda ls: "\n".join(ls).encode())


@st.composite
def fsd1_files(draw):
    """An FSD1 header (small or extreme sizes) and a body of the declared
    length or any other."""
    sizes = st.integers(0, 3) | st.integers(0, 2**32 - 1)
    n, dim, num_classes = draw(sizes), draw(sizes), draw(sizes)
    exact = n * (4 * dim + 4)
    body = (st.binary(min_size=exact, max_size=exact) if exact <= 64
            else st.binary(max_size=64))
    return struct.pack("<4sIII", b"FSD1", n, dim, num_classes) + draw(body)


csv_header = (",".join(CSV_HEADER) + "\n").encode()
csv_files = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda tail: csv_header + tail),
    text_lines(st.text(VALUE_CHARS, max_size=40)).map(lambda t: csv_header + t),
)

ini_files = st.one_of(
    st.binary(max_size=200),
    text_lines(st.one_of(
        st.sampled_from(["[data]", "[partition]", "[federation]", "[output]",
                         "[DEFAULT]", "[training]"]),
        st.builds("{} = {}".format,
                  st.sampled_from(["dim", "alpha", "rounds", "seed",
                                   "algorithm", "dir", "runds"]),
                  st.text(VALUE_CHARS, max_size=12)),
        st.text(max_size=20),
    )),
)

constants_files = st.one_of(
    st.binary(max_size=200),
    text_lines(st.one_of(
        st.builds("{}={}".format,
                  st.sampled_from(["l1", "b", "num_classes", "eta", "xi", "zeta"]),
                  st.text(VALUE_CHARS, max_size=12)),
        st.text(max_size=20),
    )),
)


@FUZZ
@given(data=st.binary(max_size=64) | fsd1_files())
def test_load_dataset(tmp_path, data):
    parses_or_fails_cleanly(load_dataset, tmp_path / "data.fsd", data,
                            {"malformed-header", "truncated-file",
                             "dimension-mismatch", "invalid-argument"})


@FUZZ
@given(data=csv_files)
def test_read_metrics_csv(tmp_path, data):
    parses_or_fails_cleanly(read_metrics_csv, tmp_path / "metrics.csv", data,
                            {"malformed-csv"})


@FUZZ
@given(data=ini_files)
def test_config_file(tmp_path, data):
    parses_or_fails_cleanly(_load_config_file, tmp_path / "run.ini", data,
                            {"invalid-config"})


@FUZZ
@given(data=constants_files)
def test_constants_file(tmp_path, data):
    parses_or_fails_cleanly(_load_constants, tmp_path / "constants.txt", data,
                            {"invalid-constants"})

