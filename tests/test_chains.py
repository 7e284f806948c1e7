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


def read_error(path):
    with pytest.raises(ChainFileError) as info:
        read_chain_file(path)
    return str(info.value)


def test_read_csv_error_counts_blank_lines(tmp_path):
    path = tmp_path / "chains.csv"
    path.write_text("iteration,label\n0,A\n\n\n1,B\n3,A\n", encoding="utf-8")
    assert read_error(path) == f"{path}:6: iteration 3 does not follow 1 consecutively in chain ''"


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
    assert (chains_module._scan_plain(path) is None) == bool(quote)
    assert read_as_lists(path) == [(("A", "B"), [0, 1]), (("B", "A"), [0, 1])]


@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
def test_read_csv_byte_order_mark_keeps_iteration_check(tmp_path, quote):
    path = tmp_path / "chains.csv"
    path.write_bytes(f"\ufeffiteration,label\n1,{quote}A{quote}\n\n3,B\n".encode())
    assert (chains_module._scan_plain(path) is None) == bool(quote)
    assert read_error(path) == f"{path}:4: iteration 3 does not follow 1 consecutively in chain ''"


def oracle_read_csv(path):
    """Row-by-row reference reader: (labels, indices) per chain, or the error."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
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

    ``plain`` files hold no quote, LF or CRLF line ends, unpadded iterations
    and multi-byte or Unicode-space-padded labels; the others go through
    ``csv.writer`` and may quote.
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
    writer = csv.writer(out, lineterminator=eol)
    write = (lambda row: out.write(",".join(row) + eol)) if plain else writer.writerow
    out.write(draw(st.sampled_from(["", "\ufeff"])))
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


def test_read_plain_csv_last_line_without_newline(tmp_path, monkeypatch):
    path = tmp_path / "chain.csv"
    path.write_bytes(sticky_csv(10).rstrip("\n").encode("utf-8"))
    expected = oracle_read_csv(path)
    forbid_csv_reader(monkeypatch)
    assert read_as_lists(path) == expected


def test_read_csv_lone_carriage_return_falls_back(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_bytes(b"iteration,label\n0,A\r1,B\n2,A\n")
    assert chains_module._scan_plain(path) is None
    assert outcome(read_as_lists, path) == outcome(oracle_read_csv, path)


def test_read_csv_19_digit_iteration_falls_back(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text("iteration,label\n0,A\n9999999999999999999,B\n", encoding="utf-8")
    assert chains_module._scan_plain(path) is None
    assert read_error(path) == f"{path}:3: iteration 9999999999999999999 does not fit in 64 bits"
