import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import chainuq.chains as chains_module
from chainuq.chains import (
    count_transitions,
    index_chain,
    merge_counts,
    read_chain_file,
)
from chainuq.errors import (
    ChainFileError,
    EmptyChainError,
    EmptyMergeError,
    InsufficientTransitionsError,
)


def test_index_first_appearance_order():
    chain = index_chain(["A", "A", "B"])
    assert chain.labels == ("A", "B")
    assert chain.indices.tolist() == [0, 0, 1]
    assert chain.length == 3


def test_index_single_label_chain():
    chain = index_chain([7, 7, 7])
    assert chain.labels == (7,)
    assert chain.n_models == 1


def test_index_first_appearance_wins():
    chain = index_chain(["B", "A", "B"])
    assert chain.labels == ("B", "A")
    assert chain.indices.tolist() == [0, 1, 0]


def test_index_empty_raises():
    with pytest.raises(EmptyChainError):
        index_chain([])


def test_index_accepts_one_shot_generator():
    chain = index_chain(lab for lab in ["B", "A", "B", "C"])
    assert chain.labels == ("B", "A", "C")
    assert chain.indices.tolist() == [0, 1, 0, 2]
    with pytest.raises(EmptyChainError):
        index_chain(lab for lab in [])


def test_count_small_chain():
    counts = count_transitions(index_chain([1, 1, 2, 1]))
    assert counts.counts.tolist() == [[1, 1], [1, 0]]
    assert counts.total_transitions == 3
    assert counts.visits.tolist() == [3, 1]


def test_count_constant_chain():
    counts = count_transitions(index_chain([1, 1, 1, 1]))
    assert counts.counts.tolist() == [[3]]


def test_count_total_is_length_minus_one():
    rng = np.random.default_rng(0)
    chain = index_chain(rng.integers(0, 5, size=1001).tolist())
    assert count_transitions(chain).total_transitions == 1000


def test_count_too_short_raises():
    with pytest.raises(InsufficientTransitionsError):
        count_transitions(index_chain(["A"]))


def test_merge_same_labels_sums_elementwise():
    n1 = count_transitions(index_chain([1, 1, 2, 1]))  # [[1,1],[1,0]]
    n2 = count_transitions(index_chain([1, 2, 1, 2, 2, 1]))  # [[0,2],[2,1]]
    merged = merge_counts([n1, n2])
    assert merged.counts.tolist() == [[1, 3], [3, 1]]
    assert merged.total_transitions == n1.total_transitions + n2.total_transitions
    assert merged.n_chains == 2


def test_merge_disjoint_labels_builds_block_matrix():
    nab = count_transitions(index_chain(["A", "B", "A"]))
    nc = count_transitions(index_chain(["C", "C"]))
    merged = merge_counts([nab, nc])
    assert merged.labels == ("A", "B", "C")
    expected = np.zeros((3, 3), dtype=int)
    expected[:2, :2] = nab.counts
    expected[2, 2] = 1
    assert merged.counts.tolist() == expected.tolist()


def test_merge_single_part_is_identity():
    n1 = count_transitions(index_chain([1, 2, 2, 1]))
    merged = merge_counts([n1])
    assert merged.counts.tolist() == n1.counts.tolist()
    assert merged.labels == n1.labels


def test_merge_empty_raises():
    with pytest.raises(EmptyMergeError):
        merge_counts([])


def test_merge_is_commutative_on_label_content():
    n1 = count_transitions(index_chain(["A", "B", "A", "C"]))
    n2 = count_transitions(index_chain(["C", "B", "C"]))
    m12 = merge_counts([n1, n2])
    m21 = merge_counts([n2, n1])
    for a in m12.labels:
        for b in m12.labels:
            assert (
                m12.counts[m12.label_to_index[a], m12.label_to_index[b]]
                == m21.counts[m21.label_to_index[a], m21.label_to_index[b]]
            )


labels_strategy = st.lists(st.integers(0, 6), min_size=2, max_size=60)


@given(labels_strategy)
def test_row_sums_match_visit_counts_of_all_but_last(raw):
    chain = index_chain(raw)
    counts = count_transitions(chain)
    head_visits = np.bincount(chain.indices[:-1], minlength=chain.n_models)
    assert counts.counts.sum(axis=1).tolist() == head_visits.tolist()


@given(labels_strategy, labels_strategy)
def test_merge_never_bridges_chain_boundaries(raw1, raw2):
    merged = merge_counts(
        [count_transitions(index_chain(raw1)), count_transitions(index_chain(raw2))]
    )
    assert merged.total_transitions == (len(raw1) - 1) + (len(raw2) - 1)
    assert merged.counts.sum() == merged.total_transitions


def test_total_transitions_of_three_merged_chains():
    raws = ["ABBA", "CCAB" * 7, "BDDA" * 3 + "B"]
    merged = merge_counts([count_transitions(index_chain(raw)) for raw in raws])
    assert merged.n_chains == 3
    assert merged.total_transitions == merged.counts.sum() == sum(len(raw) - 1 for raw in raws)


@given(labels_strategy, st.randoms(use_true_random=False))
def test_relabeling_permutes_counts_consistently(raw, rnd):
    chain = index_chain(raw)
    perm = list(range(100))
    rnd.shuffle(perm)
    relabeled = index_chain([f"m{perm[lab]}" for lab in raw])
    counts = count_transitions(chain)
    recounts = count_transitions(relabeled)
    # first-appearance indexing is structural: the matrices coincide and only
    # the label dictionary changes
    assert recounts.counts.tolist() == counts.counts.tolist()
    assert recounts.labels == tuple(f"m{perm[lab]}" for lab in counts.labels)


def test_read_lines_file(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("A\nB\n\nA\n", encoding="utf-8")
    (chain,) = read_chain_file(path)
    assert chain.labels == ("A", "B")
    assert chain.length == 3


def test_read_lines_skips_byte_order_mark(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_bytes(b"\xef\xbb\xbfA\nB\nA\nB\n")
    (chain,) = read_chain_file(path)
    assert chain.labels == ("A", "B")
    assert chain.length == 4


def test_read_lines_empty_file_raises(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(EmptyChainError):
        read_chain_file(path)


def test_read_csv_multiple_chains(tmp_path):
    path = tmp_path / "chains.csv"
    path.write_text(
        "chain_id,iteration,label\n"
        "1,1,A\n1,2,B\n2,5,B\n1,3,A\n2,6,B\n",
        encoding="utf-8",
    )
    chains = read_chain_file(path)
    assert len(chains) == 2
    assert chains[0].labels == ("A", "B")
    assert chains[0].length == 3
    assert chains[1].length == 2


def test_read_csv_without_iteration_column(tmp_path):
    path = tmp_path / "chains.csv"
    path.write_text("label\nA\nB\nA\n", encoding="utf-8")
    (chain,) = read_chain_file(path)
    assert chain.length == 3


def test_read_csv_gap_in_iterations_rejected(tmp_path):
    path = tmp_path / "chains.csv"
    path.write_text("iteration,label\n1,A\n3,B\n", encoding="utf-8")
    with pytest.raises(ChainFileError):
        read_chain_file(path)


def test_read_csv_decreasing_iterations_rejected(tmp_path):
    path = tmp_path / "chains.csv"
    path.write_text("iteration,label\n2,A\n1,B\n", encoding="utf-8")
    with pytest.raises(ChainFileError):
        read_chain_file(path)


def test_read_csv_missing_label_column_rejected(tmp_path):
    path = tmp_path / "chains.csv"
    path.write_text("state\nA\n", encoding="utf-8")
    with pytest.raises(ChainFileError):
        read_chain_file(path)


def test_format_inferred_from_extension(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text("label\nA\nB\n", encoding="utf-8")
    (chain,) = read_chain_file(path)
    assert chain.labels == ("A", "B")


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("A\nB\n", encoding="utf-8")
    with pytest.raises(ChainFileError, match="unknown chain file format 'xml'"):
        read_chain_file(path, "xml")


def read_error(path):
    with pytest.raises(ChainFileError) as info:
        read_chain_file(path)
    return str(info.value)


def test_read_csv_error_counts_blank_lines(tmp_path):
    path = tmp_path / "chains.csv"
    path.write_text("iteration,label\n0,A\n\n\n1,B\n3,A\n", encoding="utf-8")
    assert read_error(path) == f"{path}:6: iteration 3 does not follow 1 consecutively in chain ''"


@pytest.mark.parametrize(
    "quote, eol", [("", "\n"), ("", "\r\n"), ('"', "\r\n")], ids=["plain", "plain-crlf", "quoted-crlf"]
)
def test_read_csv_skips_blank_lines_before_the_header(tmp_path, quote, eol):
    rows = [["chain_id", "iteration", "label"]]
    rows += [[cid, str(i), lab] for cid in "ab" for i, lab in enumerate("AABBA")]
    text = "".join(",".join(f"{quote}{field}{quote}" for field in row) + eol for row in rows)
    bare, padded = tmp_path / "bare.csv", tmp_path / "padded.csv"
    bare.write_bytes(text.encode())
    padded.write_bytes((eol * 2 + text).encode())
    assert read_as_lists(padded) == read_as_lists(bare)


def test_read_csv_error_after_leading_blank_lines_names_the_physical_line(tmp_path):
    path = tmp_path / "chains.csv"
    path.write_text("\n\niteration,label\n0,A\n2,B\n", encoding="utf-8")
    assert read_error(path) == f"{path}:5: iteration 2 does not follow 0 consecutively in chain ''"


def test_read_csv_error_counts_lines_inside_quoted_fields(tmp_path):
    path = tmp_path / "chains.csv"
    path.write_text('iteration,label\n0,A\n1,"B\nC"\n2,\n', encoding="utf-8")
    assert read_error(path) == f"{path}:5: empty label"


@pytest.mark.parametrize(
    "text",
    ["label,chain_id\nA,1\nB\n", "chain_id,label\n1,A\n1\n"],
    ids=["missing_chain_id", "missing_label"],
)
def test_read_csv_short_row_rejected(tmp_path, text):
    path = tmp_path / "chains.csv"
    path.write_text(text, encoding="utf-8")
    assert read_error(path) == f"{path}:3: row has 1 fields, header has 2"


def test_read_csv_extra_trailing_fields_allowed(tmp_path):
    path = tmp_path / "chains.csv"
    path.write_text("iteration,label\n0,A,x\n1,B,y,z\n", encoding="utf-8")
    (chain,) = read_chain_file(path)
    assert chain.labels == ("A", "B")


def test_read_csv_iteration_beyond_64_bits_rejected(tmp_path):
    path = tmp_path / "chains.csv"
    path.write_text(f"iteration,label\n0,A\n{2**70},B\n", encoding="utf-8")
    assert read_error(path) == f"{path}:3: iteration {2**70} does not fit in 64 bits"


def test_read_csv_iteration_does_not_wrap_around(tmp_path):
    path = tmp_path / "chains.csv"
    path.write_text(f"iteration,label\n{2**63 - 1},A\n{-2**63},B\n", encoding="utf-8")
    assert read_error(path) == (
        f"{path}:3: iteration {-2**63} does not follow {2**63 - 1} consecutively in chain ''"
    )


@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
def test_read_csv_skips_byte_order_mark(tmp_path, quote):
    path = tmp_path / "chains.csv"
    path.write_bytes(f"\ufeffchain_id,label\na,{quote}A{quote}\na,B\nb,B\nb,A\n".encode())
    assert (chains_module._read_plain(path) is None) == bool(quote)
    assert read_as_lists(path) == [(("A", "B"), [0, 1]), (("B", "A"), [0, 1])]


@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
def test_read_csv_byte_order_mark_keeps_iteration_check(tmp_path, quote):
    path = tmp_path / "chains.csv"
    path.write_bytes(f"\ufeffiteration,label\n1,{quote}A{quote}\n\n2,B\n".encode())
    assert (chains_module._read_plain(path) is None) == bool(quote)
    path.write_bytes(f"\ufeffiteration,label\n1,{quote}A{quote}\n\n3,B\n".encode())
    assert read_error(path) == f"{path}:4: iteration 3 does not follow 1 consecutively in chain ''"


NINETEEN = "9" * 19


@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
@pytest.mark.parametrize(
    "rows, line, message",
    [
        (
            [["0", "A"], ["2", "B"], ["3", ""]],
            3,
            "iteration 2 does not follow 0 consecutively in chain ''",
        ),
        ([["0", "A"], ["1", ""], ["3", "B"]], 3, "empty label"),
        ([["0", ""], ["1"]], 2, "empty label"),
        ([["0", "A"], ["1"], ["2", ""]], 3, "row has 1 fields, header has 2"),
        ([["0", "A"], ["1"], [NINETEEN, "B"]], 3, "row has 1 fields, header has 2"),
        ([["0", "A"], [NINETEEN, "B"], ["2"]], 3, f"iteration {NINETEEN} does not fit in 64 bits"),
        ([["0", "A"], ["x", ""]], 3, "empty label"),  # two faults on one row
    ],
    ids=["gap-then-empty", "empty-then-gap", "empty-then-short", "short-then-empty",
         "short-then-19-digits", "19-digits-then-short", "empty-and-text-on-one-row"],
)
def test_read_csv_reports_first_failing_row_in_check_order(tmp_path, quote, rows, line, message):
    # the first row in file order that fails a check is reported; on that row the
    # checks apply in order: field count, empty label, integer, 64 bits, consecutive
    path = tmp_path / "chains.csv"
    rows = [["iteration", "label"]] + rows
    text = "".join(",".join(f"{quote}{field}{quote}" for field in row) + "\n" for row in rows)
    path.write_text(text, encoding="utf-8")
    assert read_error(path) == f"{path}:{line}: {message}"


OVERSIZED = '"' + "x" * (csv.field_size_limit() + 1) + '"'  # csv.reader raises csv.Error on it


@pytest.mark.parametrize(
    "rows, line, message",
    [
        (["0,", f"1,{OVERSIZED}"], 2, "empty label"),
        (["0,A", "2,B", f"3,{OVERSIZED}"], 3, "iteration 2 does not follow 0 consecutively in chain ''"),
        (["0,A", f"1,{OVERSIZED}"], 3, f"field larger than field limit ({csv.field_size_limit()})"),
    ],
    ids=["empty-then-oversized", "gap-then-oversized", "oversized-only"],
)
def test_read_csv_reports_a_bad_row_before_an_unreadable_one(tmp_path, rows, line, message):
    path = tmp_path / "chains.csv"
    path.write_text("\n".join(["iteration,label", *rows]) + "\n", encoding="utf-8")
    assert read_error(path) == f"{path}:{line}: {message}"


@pytest.mark.parametrize(
    "data",
    [b"", b"\xef\xbb\xbf", b"\n\n", b"\r\n\r\n"],
    ids=["0-byte", "bom-only", "lf-blank-lines", "crlf-blank-lines"],
)
def test_read_csv_with_no_row_is_empty(tmp_path, data):
    path = tmp_path / "chains.csv"
    path.write_bytes(data)
    with pytest.raises(EmptyChainError) as info:
        read_chain_file(path)
    assert str(info.value) == f"{path}: no rows found"


def oracle_read_csv(path):
    """Row-by-row reference reader: (labels, indices) per chain, or the error."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next((row for row in reader if row), None)  # the first non-blank row
        if header is None:
            raise EmptyChainError(f"{path}: no rows found")
        column = {name: i for i, name in enumerate(header)}
        if "label" not in column:
            raise ChainFileError(f"{path}: CSV must have a 'label' column")
        sequences, last_iter = {}, {}
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) < len(header):
                raise ChainFileError(
                    f"{where}: row has {len(row)} fields, header has {len(header)}"
                )
            label = row[column["label"]].strip()
            if not label:
                raise ChainFileError(f"{where}: empty label")
            cid = row[column["chain_id"]] if "chain_id" in column else ""
            if "iteration" in column:
                try:
                    it = int(row[column["iteration"]])
                except ValueError:
                    raise ChainFileError(f"{where}: iteration is not an integer") from None
                prev = last_iter.get(cid)
                if prev is not None and it != prev + 1:
                    raise ChainFileError(
                        f"{where}: iteration {it} does not follow {prev} consecutively "
                        f"in chain {cid!r}"
                    )
                last_iter[cid] = it
            sequences.setdefault(cid, []).append(label)
    if not sequences:
        raise EmptyChainError(f"{path}: no rows found")
    chains = []
    for seq in sequences.values():
        order = {}
        indices = [order.setdefault(lab, len(order)) for lab in seq]
        chains.append((tuple(order), indices))
    return chains


CHAIN_IDS = ["1", "2", " 1", "a,b"]
LABELS = ["A", " A", "A ", "B", "m,1", 'q"r', "x\ny"]
PLAIN_CHAIN_IDS = ["1", "2", " 1", "ü", "chain_0001"]
# the reader compares a field's first 8 bytes as one word and only longer fields byte by byte
WORD_LABELS = ["model_01", "model_012", "model_0123456789a", "model_0123456789b", "modèle_1"]
PLAIN_LABELS = ["A", " A", "A ", "B", "modèle", "\u00a0A", "\u2003B\u3000", *WORD_LABELS]
FAULTS = ["empty", "blank label", "gap", "repeat", "text", "short", "long"]


@st.composite
def csv_files(draw, plain=False):
    """CSV text with optional byte-order mark, chain_id/iteration columns, blank lines and faults.

    Up to two line ends may come before the header, after any byte-order mark.

    ``plain`` files hold no quote, LF or CRLF line ends, unpadded iterations
    and multi-byte or Unicode-space-padded labels; the others go through
    ``csv.writer``, which quotes where a field needs it or everywhere.
    """
    columns = ["label"] + [
        name for name in ("chain_id", "iteration", "extra") if draw(st.booleans())
    ]
    header = draw(st.permutations(columns))
    n = draw(st.integers(0, 12))
    ids, names = (PLAIN_CHAIN_IDS, PLAIN_LABELS) if plain else (CHAIN_IDS, LABELS)
    chains = draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
    blanks = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    faults = dict(
        draw(st.lists(st.tuples(st.integers(0, 11), st.sampled_from(FAULTS)), max_size=2))
    )
    next_iter = {cid: draw(st.integers(-2, 3)) for cid in ids}
    eol = draw(st.sampled_from(["\n", "\r\n"])) if plain else "\n"
    out = io.StringIO()
    quoting = csv.QUOTE_MINIMAL if plain else draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    writer = csv.writer(out, lineterminator=eol, quoting=quoting)
    write = (lambda row: out.write(",".join(row) + eol)) if plain else writer.writerow
    out.write(draw(st.sampled_from(["", "\ufeff"])) + eol * draw(st.integers(0, 2)))
    write(header)
    for k in range(n):
        cid, fault = chains[k], faults.get(k)
        it = next_iter[cid] + {"gap": 1, "repeat": -1}.get(fault, 0)
        next_iter[cid] = it + 1
        fields = {
            "label": {"empty": "", "blank label": "  "}.get(fault, labels[k]),
            "chain_id": cid,
            "iteration": (
                "x" if fault == "text" else f" {it}" if k % 3 == 0 and not plain else str(it)
            ),
            "extra": "e",
        }
        row = [fields[name] for name in header]
        if fault == "short":
            row = row[:-1] or row
        elif fault == "long":
            row.append("tail")
        out.write(eol * blanks[k])
        write(row)
    return out.getvalue()


def outcome(read, path):
    try:
        return read(path)
    except (ChainFileError, EmptyChainError) as exc:
        return type(exc).__name__, str(exc)


def read_as_lists(path):
    return [(c.labels, c.indices.tolist()) for c in read_chain_file(path)]


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.booleans().flatmap(csv_files))
# adjacent labels equal in width and in their first 16 bytes; the search seldom draws these
@example("chain_id,label\r\nchain_0001,model_0123456789a\r\nchain_0001,model_0123456789b\r\n")
def test_read_csv_matches_row_by_row_oracle(tmp_path, text):
    path = tmp_path / "chains.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_as_lists, path) == outcome(oracle_read_csv, path)


def sticky_labels(rows):
    """Labels of a benchmark-shaped chain: long runs of few labels."""
    return np.repeat(["M07", "M1", "modèle", "M07"], -(-rows // 4))[:rows].tolist()


def sticky_csv(rows, eol="\n"):
    lines = [f"{i},{lab}" for i, lab in enumerate(sticky_labels(rows))]
    return eol.join(["iteration,label"] + lines) + eol


def forbid_csv_reader(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called on a plain file")

    monkeypatch.setattr(chains_module.csv, "reader", refuse)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_read_plain_csv_never_reaches_csv_reader(tmp_path, monkeypatch, eol):
    path = tmp_path / "chain.csv"
    path.write_bytes(sticky_csv(1000, eol=eol).encode("utf-8"))
    expected = oracle_read_csv(path)
    forbid_csv_reader(monkeypatch)
    assert read_as_lists(path) == expected


@pytest.mark.parametrize("chain_ids", [False, True])
def test_read_plain_csv_run_across_block_boundary(tmp_path, monkeypatch, chain_ids):
    path = tmp_path / "chain.csv"
    text = sticky_csv(200)
    if chain_ids:  # chains a and b take turns every 30 rows
        rows = [f"{'ab'[k // 30 % 2]},{lab}" for k, lab in enumerate(sticky_labels(200))]
        text = "\n".join(["chain_id,label"] + rows) + "\n"
    path.write_bytes(text.encode("utf-8"))
    expected = oracle_read_csv(path)
    forbid_csv_reader(monkeypatch)
    monkeypatch.setattr(chains_module, "_BLOCK", 64)
    assert read_as_lists(path) == expected


@pytest.mark.parametrize("chain_ids", [False, True])
def test_read_plain_csv_long_fields_across_block_boundary(tmp_path, monkeypatch, chain_ids):
    # runs of 1-7 rows cycle through labels equal in their first 8 or 16 bytes;
    # chain_0001 and chain_0002 differ only in their tenth byte
    labels = [lab for k in range(40) for lab in [WORD_LABELS[k % 5]] * (k % 7 + 1)]
    if chain_ids:
        cids = [f"chain_000{k // 25 % 2 + 1}" for k in range(len(labels))]
        rows = ["chain_id,label"] + [f"{cid},{lab}" for cid, lab in zip(cids, labels)]
    else:
        rows = ["iteration,label"] + [f"{i},{lab}" for i, lab in enumerate(labels)]
    path = tmp_path / "chain.csv"
    path.write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
    expected = oracle_read_csv(path)
    forbid_csv_reader(monkeypatch)
    monkeypatch.setattr(chains_module, "_BLOCK", 64)
    assert read_as_lists(path) == expected


def test_read_plain_csv_finds_the_header_after_a_block_of_blank_lines(tmp_path, monkeypatch):
    bare, padded = tmp_path / "bare.csv", tmp_path / "padded.csv"
    bare.write_bytes(sticky_csv(50).encode("utf-8"))
    padded.write_bytes(("\n" * 100 + sticky_csv(50)).encode("utf-8"))
    expected = read_as_lists(bare)
    forbid_csv_reader(monkeypatch)
    monkeypatch.setattr(chains_module, "_BLOCK", 64)  # the first block holds 65 blank lines
    assert read_as_lists(padded) == expected


def test_read_plain_csv_last_line_without_newline(tmp_path, monkeypatch):
    path = tmp_path / "chain.csv"
    path.write_bytes(sticky_csv(10).rstrip("\n").encode("utf-8"))
    expected = oracle_read_csv(path)
    forbid_csv_reader(monkeypatch)
    assert read_as_lists(path) == expected


def count_csv_readers(monkeypatch):
    made = []
    reader = chains_module.csv.reader

    def counting(*args, **kwargs):
        made.append(args)
        return reader(*args, **kwargs)

    monkeypatch.setattr(chains_module.csv, "reader", counting)
    return made


@pytest.mark.parametrize(
    "text",
    [
        '"iteration","label"\n"0","A"\n"1","B"\n"3","A"\n',
        "iteration,label\n0,A\n1,B\n3,A\n",
        '"iteration","label"\n"0","A"\n"1","B"\n"2","A"\n',
    ],
    ids=["quoted-gap-on-last-row", "plain-gap-on-last-row", "quoted"],
)
def test_read_csv_constructs_one_csv_reader(tmp_path, monkeypatch, text):
    path = tmp_path / "chain.csv"
    path.write_text(text, encoding="utf-8")
    expected = outcome(oracle_read_csv, path)
    made = count_csv_readers(monkeypatch)
    assert outcome(read_as_lists, path) == expected
    assert len(made) == 1


def r_style_rows(chain_ids):
    """(chain_id, iteration, label) rows; with chain_ids, chains a and b interleave."""
    cids = ["a", "b", "a", "a", "b", "b"] if chain_ids else [""] * 6
    labels = ["A", "model B", "model B", "A", "C", "A"]
    rows, next_iter = [], {}
    for cid, label in zip(cids, labels):
        next_iter[cid] = next_iter.get(cid, 0) + 1
        rows.append((cid, next_iter[cid], label))
    return rows


def rows_csv(rows, chain_ids, r_style):
    names = ["chain_id"] * chain_ids + ["iteration", "label"]
    if not r_style:
        lines = [names] + [[cid] * chain_ids + [str(it), label] for cid, it, label in rows]
        return "".join(",".join(line) + "\n" for line in lines)
    # R's write.csv defaults: a row-names column named "", strings quoted, numbers bare
    lines = [",".join(f'"{name}"' for name in ["", *names])] + [
        ",".join([f'"{k}"'] + [f'"{cid}"'] * chain_ids + [str(it), f'"{label}"'])
        for k, (cid, it, label) in enumerate(rows, 1)
    ]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("chain_ids", [False, True], ids=["one-chain", "chain_id"])
def test_read_csv_r_write_csv_layout_matches_plain(tmp_path, chain_ids):
    rows = r_style_rows(chain_ids)
    plain, r_style = tmp_path / "plain.csv", tmp_path / "r.csv"
    plain.write_text(rows_csv(rows, chain_ids, r_style=False), encoding="utf-8")
    r_style.write_text(rows_csv(rows, chain_ids, r_style=True), encoding="utf-8")
    assert chains_module._read_plain(plain) is not None
    assert chains_module._read_plain(r_style) is None
    assert read_as_lists(r_style) == read_as_lists(plain)
    assert read_as_lists(r_style)[0][0][:2] == ("A", "model B")  # the inner space kept


@pytest.mark.parametrize("chain_ids", [False, True], ids=["one-chain", "chain_id"])
def test_read_csv_r_write_csv_layout_gap_names_its_line(tmp_path, chain_ids):
    rows = r_style_rows(chain_ids)
    cid, it, label = rows[3]  # on line 5, after the header
    rows[3] = cid, it + 1, label
    path = tmp_path / "r.csv"
    path.write_text(rows_csv(rows, chain_ids, r_style=True), encoding="utf-8")
    assert read_error(path) == (
        f"{path}:5: iteration {it + 1} does not follow {it - 1} consecutively in chain {cid!r}"
    )


def test_read_csv_lone_carriage_return_falls_back(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_bytes(b"iteration,label\n0,A\r1,B\n2,A\n")
    assert chains_module._read_plain(path) is None
    assert outcome(read_as_lists, path) == outcome(oracle_read_csv, path)


def test_read_csv_19_digit_iteration_falls_back(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text("iteration,label\n0,A\n9999999999999999999,B\n", encoding="utf-8")
    assert chains_module._read_plain(path) is None
    assert read_error(path) == f"{path}:3: iteration 9999999999999999999 does not fit in 64 bits"
