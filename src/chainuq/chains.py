"""Model-indicator chains, transition counting, and chain-file parsing.

Model labels are opaque symbols (strings or integers). Internal indices are
assigned by order of first appearance in the chain, never by the label
values, so every downstream computation is invariant under relabeling.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ChainFileError,
    EmptyChainError,
    EmptyMergeError,
    InsufficientTransitionsError,
)

# bytes read per step of the plain-CSV pass, which then reads on to the end of the line
_BLOCK = 1 << 20


@dataclass(frozen=True, eq=False)
class LabeledChain:
    """One run of a discrete model-indexing variable.

    Attributes
    ----------
    labels : tuple
        Distinct model labels in order of first appearance; position is the
        internal index.
    indices : ndarray of int, shape (T,)
        The chain expressed as internal indices.
    """

    labels: tuple
    indices: np.ndarray

    def __post_init__(self):
        self.indices.flags.writeable = False

    @property
    def length(self) -> int:
        return int(self.indices.size)

    @property
    def n_models(self) -> int:
        return len(self.labels)

    def visit_counts(self) -> np.ndarray:
        """Occupancy count of each observed model over all iterations."""
        return np.bincount(self.indices, minlength=self.n_models)


@dataclass(frozen=True, eq=False)
class TransitionCounts:
    """Observed one-step transition frequencies over the models seen in a chain.

    Attributes
    ----------
    counts : ndarray of int, shape (I, I)
        counts[i, j] is the number of observed moves from model i to model j.
    labels : tuple
        Internal index -> model label.
    visits : ndarray of int, shape (I,)
        Occupancy counts over all iterations (including the final state).
    n_chains : int
        Number of independent chains that contributed.

    Derived, read-only: ``n_models`` is ``len(labels)``; ``total_transitions``
    is ``counts.sum()``, the sum of (T_c - 1) over chains; ``total_iterations``
    is ``visits.sum()``; ``label_to_index`` inverts ``labels``.
    """

    counts: np.ndarray
    labels: tuple
    visits: np.ndarray
    n_chains: int = 1

    def __post_init__(self):
        self.counts.flags.writeable = False
        self.visits.flags.writeable = False

    @property
    def n_models(self) -> int:
        return len(self.labels)

    @property
    def total_transitions(self) -> int:
        return int(self.counts.sum())

    @property
    def total_iterations(self) -> int:
        return int(self.visits.sum())

    @cached_property
    def label_to_index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}


def index_chain(raw) -> LabeledChain:
    """Index a raw label sequence by first appearance.

    ``["B", "A", "B"]`` maps B -> 0 and A -> 1 because B is seen first.
    ``raw`` may be any iterable, a one-shot generator included.

    Raises
    ------
    EmptyChainError
        If the sequence contains no labels.
    """
    order: dict = {}
    indices = np.fromiter((order.setdefault(lab, len(order)) for lab in raw), dtype=np.intp)
    if not indices.size:
        raise EmptyChainError("cannot index an empty chain")
    return LabeledChain(labels=tuple(order), indices=indices)


def count_transitions(chain: LabeledChain) -> TransitionCounts:
    """Tally the one-step transition frequencies of a chain.

    Raises
    ------
    InsufficientTransitionsError
        If the chain holds fewer than two iterations.
    """
    if chain.length < 2:
        raise InsufficientTransitionsError(
            f"chain of length {chain.length} contains no transition"
        )
    n = chain.n_models
    flat = chain.indices[:-1] * n + chain.indices[1:]
    counts = np.bincount(flat, minlength=n * n).reshape(n, n)
    return TransitionCounts(counts=counts, labels=chain.labels, visits=chain.visit_counts())


def merge_counts(parts) -> TransitionCounts:
    """Sum transition counts from independent chains over the union label set.

    Labels missing from a part contribute zero rows/columns. No transition is
    ever inserted between the end of one chain and the start of the next; the
    merged total is the plain sum of the parts' totals.

    The union is indexed by first appearance across ``parts`` in the given
    order; the label-indexed content is independent of that order.

    Raises
    ------
    EmptyMergeError
        If ``parts`` is empty.
    """
    parts = list(parts)
    if not parts:
        raise EmptyMergeError("cannot merge an empty list of count matrices")
    # the parts' label lists end to end, indexed once: each part's slice maps it into the union
    union = index_chain(lab for part in parts for lab in part.labels)
    n = union.n_models
    counts = np.zeros((n, n), dtype=np.int64)
    visits = np.zeros(n, dtype=np.int64)
    ends = np.cumsum([part.n_models for part in parts])
    for part, pos in zip(parts, np.split(union.indices, ends[:-1])):
        counts[np.ix_(pos, pos)] += part.counts
        visits[pos] += part.visits
    return TransitionCounts(counts=counts, labels=union.labels, visits=visits,
                            n_chains=int(sum(p.n_chains for p in parts)))


def read_chain_file(path, fmt: str | None = None) -> list[LabeledChain]:
    """Read one or more chains from a text or CSV file.

    Plain text ("lines") holds one label per line and yields a single chain.
    CSV requires a header with a ``label`` column and may carry ``chain_id``
    (several chains per file) and ``iteration`` (validated to be consecutive
    integers within each chain; gaps are rejected rather than guessed over).
    Labels are stripped and blank lines skipped. The file must be UTF-8; one
    leading byte-order mark is skipped. Malformed input (bytes that are not
    UTF-8, a row with fewer fields than the header, a CSV field over
    ``csv.field_size_limit()``) raises `ChainFileError` naming the file and
    the physical line.

    A plain CSV is tokenized as bytes: UTF-8, no ``"`` or NUL byte, LF or CRLF
    line ends, no line over the field limit, no short row, iterations of an
    optional ``-`` and 1-18 digits. `_read_plain` returning None is the one
    hand-off to `_read_rows`: any other CSV, or a plain one with no rows, an
    empty label or a gap, is parsed once by ``csv.reader``, at about 5x the
    cost per row; one that turns non-plain only near its end is tokenized first.

    Parameters
    ----------
    path : str or Path
    fmt : {"lines", "csv"}, optional
        Inferred from the file extension when omitted.
    """
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "lines"
    if fmt not in ("lines", "csv"):
        raise ChainFileError(f"unknown chain file format {fmt!r}")
    try:
        return [_read_lines(path)] if fmt == "lines" else _read_plain(path) or _read_rows(path)
    except UnicodeDecodeError:  # its offset counts from the text reader's chunk, not the file
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:  # bad byte: U+DCxx
            bad = next(n for n, s in enumerate(fh, 1) if s != s.encode("utf-8", "replace").decode())
        raise ChainFileError(f"{path}:{bad}: not valid UTF-8") from None


def _read_lines(path: Path) -> LabeledChain:
    with open(path, encoding="utf-8-sig") as fh:  # -sig: drop one leading byte-order mark
        labels = [line.strip() for line in fh]
    labels = [lab for lab in labels if lab]
    if not labels:
        raise EmptyChainError(f"{path}: no labels found")
    return index_chain(labels)


def _read_rows(path: Path) -> list[LabeledChain]:
    """Any CSV, one ``csv.reader`` row at a time, checked; the first failing row raises.

    A row's checks, in order: ``csv.reader`` can read it, as many fields as the header,
    a label not empty once stripped, an integer iteration that fits in 64 bits and is
    one past its chain's last. Each distinct (chain_id, raw label) pair is stripped,
    checked and indexed at its first row.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)

        def error(problem):
            return ChainFileError(f"{path}:{reader.line_num}: {problem}")

        try:
            header = next((row for row in reader if row), None)  # the first non-blank row
            if header is None:
                raise EmptyChainError(f"{path}: no rows found")
            label_col, iter_col, chain_col = _columns(path, header)
            key = itemgetter(label_col) if chain_col is None else itemgetter(chain_col, label_col)
            chains = {}  # raw chain_id -> ({stripped label: index}, indices, [last iteration])
            seen = {}  # (raw chain_id, raw label) -> (its chain's [last iteration], append, index)
            for row in reader:
                if len(row) < len(header):
                    if row:
                        raise error(f"row has {len(row)} fields, header has {len(header)}")
                    continue  # blank line
                pair = key(row)
                hit = seen.get(pair)
                if hit is None:
                    cid, label = ("", pair) if chain_col is None else pair
                    label = label.strip()
                    if not label:
                        raise error("empty label")
                    order, indices, last = chains.setdefault(cid, ({}, array("q"), [None]))
                    hit = seen[pair] = last, indices.append, order.setdefault(label, len(order))
                last, add, index = hit
                if iter_col is not None:
                    try:
                        it = int(row[iter_col])
                    except ValueError:
                        raise error("iteration is not an integer") from None
                    if not -(1 << 63) <= it < 1 << 63:
                        raise error(f"iteration {row[iter_col].strip()} does not fit in 64 bits")
                    if last[0] is not None and it != last[0] + 1:
                        cid = "" if chain_col is None else pair[0]
                        raise error(
                            f"iteration {it} does not follow {last[0]} consecutively in chain {cid!r}"
                        )
                    last[0] = it
                add(index)
        except csv.Error as exc:  # a field over csv.field_size_limit(), or NUL before 3.11
            raise error(exc) from None
    if not chains:
        raise EmptyChainError(f"{path}: no rows found")
    return [
        LabeledChain(labels=tuple(order), indices=np.frombuffer(indices, dtype=np.int64))
        for order, indices, _ in chains.values()
    ]


def _columns(path: Path, header: list) -> tuple:
    column = {name: i for i, name in enumerate(header)}  # last duplicate wins
    if "label" not in column:
        raise ChainFileError(f"{path}: CSV must have a 'label' column")
    return column["label"], column.get("iteration"), column.get("chain_id")


def _read_plain(path: Path) -> list[LabeledChain] | None:
    """A plain file's chains, from array operations; None hands the file to `_read_rows`.

    None for a file that is not plain, as `read_chain_file` defines it, or
    that has no rows, an empty label or an iteration gap. Each block of whole
    lines is split by one pass over its delimiters (commas and LFs): a line's
    LF and its first delimiter are positions in that one array, so its comma
    count and the bounds of its k-th field are differences and lookups there.
    A row becomes two integers, its (chain_id, raw label) pair's code and its
    iteration; only rows whose pair bytes differ from the row before's are
    decoded. Each pair's label is stripped and indexed once, and the row
    checks run as yes/no array operations.
    """
    limit, header = csv.field_size_limit(), None
    pairs, codes, iters = {}, array("q"), array("q")
    with open(path, "rb") as fh:
        if fh.read(3) != b"\xef\xbb\xbf":  # a leading UTF-8 byte-order mark is skipped
            fh.seek(0)
        for data in iter(lambda: fh.read(_BLOCK) + fh.readline(), b""):  # whole lines
            utf8 = data.isascii() or data.decode("utf-8", "replace").encode() == data
            if b'"' in data or b"\0" in data or not utf8:
                return None
            cr = b"\r" in data
            if cr and data.count(b"\r") != data.count(b"\r\n"):
                return None
            # the block ends with an LF; 8 zero bytes after it let a word be read at any field
            buf = np.frombuffer(data + b"\n" * (not data.endswith(b"\n")) + bytes(8), np.uint8)
            delims = np.flatnonzero((buf == 10) | (buf == 44))
            lf = np.flatnonzero(buf[delims] == 10)  # each line's LF, as a position in delims
            row0 = np.concatenate(([0], lf[:-1] + 1))  # each line's first delimiter
            ends = delims[lf]
            starts = np.concatenate(([0], ends[:-1] + 1))
            if cr:
                ends -= buf[ends - 1] == 13  # the CR of a CRLF; buf[-1] is not one
            if (ends - starts > limit).any():
                return None
            keep = ends > starts  # skip blank lines
            if header is None:  # the first kept line
                if not keep.any():
                    continue
                h = int(np.argmax(keep))
                header = data[starts[h] : ends[h]].decode("utf-8").split(",")
                label_col, iter_col, chain_col = _columns(path, header)
                keep[h] = False
            lf, row0, starts, ends = lf[keep], row0[keep], starts[keep], ends[keep]
            if (lf - row0 < len(header) - 1).any():
                return None  # a short row
            field = {  # column k of each row: after its k-th comma to the next comma or line end
                k: (starts if k == 0 else delims[row0 + k - 1] + 1,
                    np.minimum(delims[row0 + k], ends))
                for k in (label_col, chain_col, iter_col) if k is not None
            }
            if iter_col is not None:
                lo, hi = field[iter_col]
                neg = buf[lo] == 45
                width = hi - lo - neg
                values = np.empty(width.size, dtype=np.int64)
                for w in np.flatnonzero(np.bincount(width)).tolist():  # one gather per width
                    rows = np.flatnonzero(width == w)
                    digits = sliding_window_view(buf, w)[hi[rows] - w] - np.uint8(48)
                    if not 1 <= w <= 18 or (digits > 9).any():  # a non-digit wraps past 9
                        return None
                    values[rows] = digits @ 10 ** np.arange(w - 1, -1, -1)
                iters.frombytes(np.where(neg, -values, values).tobytes())
            bounds = [field[k] for k in (chain_col, label_col) if k is not None]
            same = [_same_as_previous(buf, lo, hi) for lo, hi in bounds]
            runs = np.flatnonzero(~np.logical_and.reduce(same))
            spans = [zip(lo[runs].tolist(), hi[runs].tolist()) for lo, hi in bounds]
            keys = [[data[a:b].decode("utf-8") for a, b in span] for span in spans]
            keys = keys[0] if chain_col is None else zip(*keys)
            run_codes = np.array([pairs.setdefault(k, len(pairs)) for k in keys], dtype=np.int64)
            codes.frombytes(np.repeat(run_codes, np.diff(runs, append=starts.size)).tobytes())

    # per pair: its chain and its stripped label's index in that chain, both
    # by first appearance, and whether the stripped label is empty
    chains: dict = {}  # raw chain_id -> (chain index, {stripped label: index})
    per_pair = []
    for pair in pairs:
        cid, label = ("", pair) if chain_col is None else pair
        c, order = chains.setdefault(cid, (len(chains), {}))
        label = label.strip()
        per_pair.append((c, order.setdefault(label, len(order)), not label))
    pair_chain, pair_local, pair_empty = np.array(per_pair, dtype=np.intp).reshape(-1, 3).T
    if not per_pair or pair_empty.any():  # no rows, or an empty label
        return None
    del data, buf, delims, lf, row0, starts, ends, field, bounds  # free the last block's arrays
    codes = np.frombuffer(codes, dtype=np.int64)
    by_chain = np.argsort(pair_chain[codes], kind="stable")
    sorted_codes = codes[by_chain]
    sorted_chain = pair_chain[sorted_codes]
    if iter_col is not None:
        it = np.frombuffer(iters, dtype=np.int64)[by_chain]
        # np.diff wraps around, so the smallest int64 would seem to follow the largest
        step = (np.diff(it) != 1) | (it[:-1] == np.iinfo(np.int64).max)
        if (step & (np.diff(sorted_chain) == 0)).any():
            return None

    local = pair_local[sorted_codes]
    ends = np.cumsum(np.bincount(sorted_chain, minlength=len(chains)))
    return [
        LabeledChain(labels=tuple(order), indices=indices)
        for (_, order), indices in zip(chains.values(), np.split(local, ends[:-1]))
    ]


# _LOW_BYTES[w] keeps the low w bytes of a word, which a little-endian read puts first
_LOW_BYTES = np.array([(1 << 8 * w) - 1 for w in range(9)], dtype=np.uint64)


def _same_as_previous(buf, starts, ends):
    """Whether each field's bytes equal those of the field in the row before (row 0: no).

    A field's first 8 bytes, read as one little-endian word and masked to its
    width, decide most rows with one comparison; ``buf`` holds at least 8
    bytes after every start. Only a field over 8 bytes whose width and word
    match the row before's has its bytes compared, one gather per width.
    """
    width = ends - starts
    words = np.ndarray(buf.size - 7, dtype="<u8", buffer=buf, strides=(1,))
    word = words[starts] & _LOW_BYTES[np.minimum(width, 8)]
    same = np.zeros(width.size, dtype=bool)
    same[1:] = (width[1:] == width[:-1]) & (word[1:] == word[:-1])
    for w in np.flatnonzero(np.bincount(width[same & (width > 8)])).tolist():
        rows = np.flatnonzero(same & (width == w))
        window = sliding_window_view(buf, w)
        same[rows] = (window[starts[rows]] == window[starts[rows - 1]]).all(axis=1)
    return same
