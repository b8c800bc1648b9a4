"""The line and field rules of every rwrl table, and the feature file reader.

Feature, model and confusion files are read through `Lines`: a file that
is not ASCII raises the table's error class, CRLF and CR line ends are
made LF once, and a line is all that lies between two LFs: no blank is
trimmed and no line is skipped. Fields follow `parse_ints` and
`parse_floats`, and no message quotes more than MAX_QUOTE characters of
one. `Lines.rows` reads rows of numbers into one matrix with the values
`float()` gives: in bulk (`_bulk_rows`), a block of lines per numpy pass,
if all fields are integers of at most 15 digits, LF-ended and joined by
one separator byte, else field by field.

Only the commands that read a table (train, predict, eval, report) import
this module; `extract` writes feature files and never compiles it.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import MAX_QUOTE, PGM_MAX_DIGITS, FeatureFileError
from .rows import FEATURE_FILE_VERSION

_HEADER = re.compile(FEATURE_FILE_VERSION + ",dim=([0-9]+)")
_INTEGER = re.compile("(-?)0*([0-9]+)")  # sign, digits past leading zeros
_FLOAT_BYTES = b"0123456789.e+-"
_INT_BYTES = b"0123456789-"

# Bulk reading: 10**15 < 2**53, so float64 holds every integer of at most
# 15 digits exactly and each partial sum below is exact. A block of about
# _BLOCK bytes of lines is converted per pass: its temporaries take about
# 0.5 MiB.
_BULK_DIGITS = 15
_BLOCK = 1 << 14
_LF, _MINUS, _ZERO = 10, ord("-"), np.uint8(ord("0"))


class Lines:
    """A table's lines from byte offset `at` of `data`, its bytes with
    CRLF and CR made LF, without line ends; bytes that are not ASCII, or
    `next` past the end, raise `error`."""

    def __init__(self, data: bytes, error: type[Exception]):
        if not data.isascii():
            raise error("the file is not ASCII text")
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        self.data, self.at, self.error = data, 0, error

    def __iter__(self):
        while self.at < len(self.data):
            yield self.next()

    def next(self) -> str:
        if self.at >= len(self.data):
            raise self.error("the file ends prematurely")
        start = self.at
        self.at = self.data.find(b"\n", start) + 1 or len(self.data)
        return self.data[start:self.at].rstrip(b"\n").decode("ascii")

    def rows(self, count: int, dim: int, sep: str, keyed: bool
             ) -> tuple[np.ndarray, np.ndarray]:
        """The next `count` lines as rows of `dim` floats joined by `sep`,
        each after an integer key field if `keyed`: the int64 keys (empty
        unless `keyed`) and a (count, dim) matrix. Rows that `_bulk_rows`
        takes are read in bulk; any others field by field into a matrix
        allocated once a line is read at full width, no larger than the
        file could hold (two bytes a float)."""
        if count < 0:
            raise self.error(f"negative row count {count}")
        bulk = _bulk_rows(self.data, self.at, count, dim, keyed, sep.encode())
        if bulk is not None:
            self.at, keys, rows = bulk
            return keys, rows
        keys, rows = [], None
        for n in range(count):
            fields = self.next().split(sep)
            if len(fields) != dim + keyed:
                raise self.error(f"row {n + 1} has {len(fields)} fields, "
                                 f"expected {dim + keyed}")
            keys += fields[:keyed]
            if rows is None:
                rows = np.empty((min(count, (len(self.data) + 1)
                                     // max(2 * dim, 1)), dim))
            rows[n] = parse_floats(fields[keyed:], self.error)
        keys = np.array(parse_ints(keys, self.error), dtype=np.int64)
        if rows is not None:
            return keys, rows
        try:
            return keys, np.empty((0, dim))
        except ValueError:  # a negative dim, or dim * 8 bytes past numpy's limit
            raise self.error(f"dim={dim} is out of range") from None


def parse_ints(fields, error: type[Exception]) -> list[int]:
    """Decimal integers that fit int64, the rule of every integer field in
    feature, model and confusion files: ASCII digits after an optional
    minus sign, so `+3`, `1_0` or ` 2` raises `error`, as do more than
    PGM_MAX_DIGITS digits, leading zeros counted. rwrl counts them: int()
    sees no leading zero and at most 19 digits, whatever its own limit."""
    values = []
    for field in fields:
        match = _INTEGER.fullmatch(field)
        if match is None:
            raise error(f"non-integer field {field!r:.{MAX_QUOTE}}")
        sign, digits = match.groups()
        if len(field) - len(sign) > PGM_MAX_DIGITS or len(digits) > 19:
            raise error("integer field out of range")
        values.append(int(sign + digits))
    try:
        return np.array(values, dtype=np.int64).tolist()
    except OverflowError:
        raise error("integer field out of range") from None


def parse_floats(fields, error: type[Exception]) -> np.ndarray:
    """Finite floats, the rule of every float field in feature and model
    files: what `float()` reads from the bytes `0-9 . e + -` alone, so `+3`,
    `.5` and `1e5` load while `1_0`, ` 2`, `1E5`, `inf` or `0x1p3` raises
    `error`. `format_rows` writes nothing else."""
    # one byte-set test per line: a regex per field costs 20x more
    if "".join(fields).encode().translate(None, _FLOAT_BYTES):
        raise error("field outside the float rule [-+.e0-9]")
    try:
        values = np.fromiter(map(float, fields), np.float64, len(fields))
    except ValueError:
        raise error("non-numeric field") from None
    if not np.isfinite(values).all():
        raise error("non-finite value")
    return values


def _bulk_rows(data: bytes, at: int, count: int, dim: int, keyed: bool,
               sep: bytes) -> tuple[int, np.ndarray, np.ndarray] | None:
    """The bulk path: `count` lines of `data` from offset `at`, each an
    optional key and `dim` integer tokens joined by `sep`. Returns the
    offset past the last line, the keys as int64 (empty unless `keyed`) and
    the (count, dim) float64 rows, or None unless every token is an
    optional `-` and 1-15 ASCII digits, every line ends in LF and holds
    `keyed + dim` tokens, each separated by exactly one `sep`.

    The matrix is allocated once the first block has read full-width lines,
    and only if the bytes left can hold `count` of them (two bytes a field
    at least), so a header's `dim` or `count` alone allocates nothing;
    blocks are converted in place into it, and no temporary is sized by
    the whole matrix."""
    fields = dim + keyed
    if dim < 1 or count < 1 or 2 * fields * count > len(data) - at:
        return None
    # one byte-set test of the first line refuses float rows before numpy
    if data[at:data.find(b"\n", at)].translate(None, _INT_BYTES + sep):
        return None
    rows = None
    done = 0
    while done < count:
        # whole lines of about _BLOCK bytes, or one longer line, and none
        # past the count-th
        end = (data.rfind(b"\n", at, at + _BLOCK) + 1
               or data.find(b"\n", at) + 1)
        if not end:         # fewer than `count` LF-ended lines
            return None
        text = np.frombuffer(data, np.uint8, end - at, at)
        if data.count(b"\n", at, end) > count - done:
            text = text[:np.flatnonzero(text == _LF)[count - done - 1] + 1]
            end = at + len(text)
        values = _bulk_block(text, fields, sep[0])
        if values is None:
            return None
        if rows is None:
            rows = np.empty((count, dim))
            keys = np.empty(count if keyed else 0, dtype=np.int64)
        lines = len(values)
        rows[done:done + lines] = values[:, keyed:]
        if keyed:
            keys[done:done + lines] = values[:, 0]
        done += lines
        at = end
    return at, keys, rows


def _bulk_block(text: np.ndarray, fields: int, sep: int) -> np.ndarray | None:
    """The (lines, fields) values of `text`, whole LF-ended lines of bytes,
    or None unless each line is `fields` tokens of the bulk rule."""
    digits = text - _ZERO
    delim = text == sep
    delim |= text == _LF
    minus = text == _MINUS
    if not (delim | minus | (digits < 10)).all():
        return None
    ends = np.flatnonzero(delim)        # token i spans starts[i]:ends[i]
    lines, extra = divmod(len(ends), fields)
    line_end = text[ends] == _LF
    if (extra or np.count_nonzero(line_end) != lines
            or not line_end[fields - 1::fields].all()):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    negative = minus[starts]            # a minus sign opens its token ...
    if np.count_nonzero(negative) != np.count_nonzero(minus):
        return None                     # ... and stands nowhere else
    width = ends - starts - negative    # digits per token
    longest = int(width.max())
    if width.min() < 1 or longest > _BULK_DIGITS:
        return None
    at = ends - 1                       # each token's last digit
    values = digits[at].astype(np.float64)
    for back in range(1, longest):
        at -= 1
        digit = digits.take(at, mode="clip")
        digit *= width > back           # past a token's first digit: 0
        values += digit * 10.0 ** back
    np.negative(values, out=values, where=negative)    # "-0" reads as -0.0
    return values.reshape(lines, fields)


def read_feature_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a feature file back into (labels, feature matrix)."""
    lines = Lines(Path(path).read_bytes(), FeatureFileError)
    header = _HEADER.fullmatch(lines.next())
    if header is None:
        raise FeatureFileError(
            f"header is not {FEATURE_FILE_VERSION},dim=<digits>")
    dim = parse_ints([header[1]], FeatureFileError)[0]
    if dim < 1:
        raise FeatureFileError(f"header declares dim={dim}, needs >= 1")
    data, at = lines.data, lines.at
    # the lines left: one per LF, and one more if none ends the file
    count = data.count(b"\n", at) + (at < len(data) and data[-1] != _LF)
    return lines.rows(count, dim, ",", keyed=True)
